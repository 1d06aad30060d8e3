"""Simplicial meshes in a single chart, with optional vertex identification.

A mesh is a list of chart vertices in R^n (n = 1, 2, 3) plus cells given as
(n+1)-tuples of vertex indices.  ``ident a b`` pairs glue chart vertices
together (used to close boxes into tori); the glued equivalence classes are
called *nodes* and are what scalar functions live on.  Chart coordinates of
the duplicated copies differ, which is exactly what makes gradients across a
glued seam come out right.

Nodes are the connected classes of the graph whose edges are the ident
pairs, found by one vectorized union-find (min-label propagation with
pointer jumping, :func:`_resolve_ident`); each class is numbered by the
rank of its smallest chart vertex.  The same routine checks that the
1-skeleton is connected.

Geometry helpers, computed on first use and cached:

* per-cell euclidean volume  |det(edge matrix)| / n!
* per-cell gradient operator B_c with  (grad f)|_c = B_c @ f[cell nodes]
  (constant chart covector per cell, exact for functions that are linear in
  the chart)
* the edge table of the 1-skeleton, deduplicated across glued seams, with
  its incident cells in compressed sparse row (CSR) form: one flat array of
  cell ids grouped by edge plus an (E + 1,) array of group offsets

File format ``dpmesh v1``::

    dpmesh v1 <n>
    v <x1> ... <xn>
    c <i0> ... <in>
    ident <a> <b>

with one vertex/cell/ident per line; ``#`` starts a comment.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateCellError,
    DisconnectedMeshError,
    MeshError,
    ParseError,
)


class Mesh:
    """Validated simplicial mesh.  Build through :func:`build_mesh`.

    Attributes
    ----------
    dim : int
        Chart dimension n (1, 2 or 3).
    verts : (V, n) float array
        Chart coordinates.
    cells : (C, n+1) int array
        Vertex indices per cell, canonically ordered (sorted ascending, last
        two swapped where needed so every signed volume is positive).
    ident : (K, 2) int array
        Glued vertex pairs as given (may be empty).
    node_of : (V,) int array
        Chart vertex -> node id after identification.
    num_nodes : int
        Number of nodes (function degrees of freedom).
    """

    def __init__(self, dim, verts, cells, ident, node_of, num_nodes):
        self.dim = dim
        self.verts = verts
        self.cells = cells
        self.ident = ident
        self.node_of = node_of
        self.num_nodes = num_nodes

    # -- derived geometry, computed lazily and cached --------------------

    @property
    def num_cells(self):
        return self.cells.shape[0]

    @property
    def num_verts(self):
        return self.verts.shape[0]

    @cached_property
    def cells_nodes(self):
        """(C, n+1) node ids per cell."""
        return self.node_of[self.cells]

    def edge_matrices(self):
        """(C, n, n) matrices with rows v_i - v_0 per cell."""
        v = self.verts[self.cells]                     # (C, n+1, n)
        return v[:, 1:, :] - v[:, :1, :]

    @cached_property
    def volumes(self):
        """(C,) euclidean cell volumes."""
        return np.abs(np.linalg.det(self.edge_matrices())) / math.factorial(self.dim)

    def gradient_operator(self):
        """(C, n, n+1) per-cell maps from vertex values to chart gradients.

        Row construction: for cell vertices v_0..v_n the gradient g of the
        linear interpolant satisfies E g = (f_1 - f_0, ..., f_n - f_0) with
        E the edge matrix, so g = E^-1 Delta f.
        """
        return self._grad_ops

    @cached_property
    def _grad_ops(self):
        # difference matrix D: (n, n+1), maps vertex values to edge diffs
        D = np.hstack([-np.ones((self.dim, 1)), np.eye(self.dim)])
        return np.einsum("cij,jk->cik", np.linalg.inv(self.edge_matrices()), D)

    @cached_property
    def edges(self):
        """Edge table of the 1-skeleton (deduplicated across glued seams).

        Returns (edge_nodes, edge_vecs, edge_cells, edge_starts):
          edge_nodes  : (E, 2) int, node ids with u < v
          edge_vecs   : (E, n) float, chart displacement from u's copy to v's
          edge_cells  : (sum of incidences,) int, incident cell ids grouped
                        by edge, ascending within each edge
          edge_starts : (E + 1,) int, edge k's cells are
                        edge_cells[edge_starts[k]:edge_starts[k + 1]]
        Two cell 1-faces are the same edge iff they join the same node pair
        through the same chart displacement (up to sign).  Edges are
        numbered by their first face in cell-major order.
        """
        return _collect_edges(self)


def _collect_edges(mesh):
    n = mesh.dim
    a, b = np.triu_indices(n + 1, k=1)          # local 1-faces, cell-major order
    va, vb = mesh.cells[:, a].ravel(), mesh.cells[:, b].ravel()
    na, nb = mesh.node_of[va], mesh.node_of[vb]
    glued = np.flatnonzero(na == nb)
    if glued.size:
        f = glued[0]
        raise DegenerateCellError(
            f"cell {f // a.size} joins identified vertices {va[f]} and {vb[f]}"
        )
    # orient every face from its lower node's copy to its higher node's
    swap = na > nb
    lo, hi = np.where(swap, nb, na), np.where(swap, na, nb)
    vec = mesh.verts[np.where(swap, va, vb)] - mesh.verts[np.where(swap, vb, va)]
    key = np.round(vec, 12)
    # group equal (lo, hi, key) faces; the stable sort keeps faces of a group
    # in face order, and == (unlike a byte view) counts -0.0 equal to 0.0
    order = np.lexsort(tuple(key.T[::-1]) + (hi, lo))
    ks, ls, hs = key[order], lo[order], hi[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (ls[1:] != ls[:-1]) | (hs[1:] != hs[:-1]) | np.any(ks[1:] != ks[:-1], axis=1)
    # number the edges by first occurrence, as a scan over the faces would
    heads = order[new]                          # first face of each group
    first = np.sort(heads)
    edge = np.searchsorted(first, heads)[np.cumsum(new) - 1]
    cid = order // a.size
    keep = new.copy()
    keep[1:] |= cid[1:] != cid[:-1]             # a cell counts once per edge
    edge, cid = edge[keep], cid[keep]
    counts = np.bincount(edge, minlength=first.size)
    return (
        np.column_stack([lo[first], hi[first]]),
        vec[first],
        cid[np.argsort(edge, kind="stable")],
        np.concatenate([[0], np.cumsum(counts)]),
    )


def _resolve_ident(num, pairs):
    """Connected classes of the graph on range(num) with edges ``pairs``.

    Returns (class_of, count), classes numbered in the order of their
    smallest members, as a union-find that hangs the larger root under the
    smaller numbers them.  Min-label propagation: every label points at a
    member of its class no larger than itself, each edge hooks the larger
    of its two root labels under the smaller, and pointer jumping flattens
    the labels to roots again.  A root with edges that neither hooks nor
    is hooked onto in one round has a smaller neighbour root in the next,
    so the rounds stay few (12 on a shuffled 100 000-node path).
    """
    label = np.arange(num)
    a, b = pairs.T
    while True:
        la, lb = label[a], label[b]
        if np.array_equal(la, lb):
            break
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        jumped = label[label]
        while not np.array_equal(jumped, label):
            label, jumped = jumped, jumped[jumped]
    roots, class_of = np.unique(label, return_inverse=True)
    return class_of, roots.size


def build_mesh(verts, cells, ident=None):
    """Validate and build a :class:`Mesh`.

    Raises
    ------
    MeshError / DegenerateCellError / DisconnectedMeshError
        On out-of-range indices, repeated or glued-together cell vertices,
        zero-volume cells, or a disconnected 1-skeleton.
    """
    verts = np.asarray(verts, dtype=float)
    cells = np.asarray(cells, dtype=np.int64)
    if verts.ndim != 2 or verts.shape[1] not in (1, 2, 3):
        raise MeshError(f"verts must be (V, n) with n in 1..3, got {verts.shape}")
    n = verts.shape[1]
    if not np.all(np.isfinite(verts)):
        raise MeshError("vertex coordinates must be finite")
    if cells.ndim != 2 or cells.shape[1] != n + 1:
        raise MeshError(
            f"cells must be (C, {n + 1}) for dimension {n}, got {cells.shape}"
        )
    if cells.shape[0] == 0:
        raise MeshError("mesh has no cells")
    V = verts.shape[0]
    if cells.min() < 0 or cells.max() >= V:
        raise MeshError("cell vertex index out of range")

    if ident is None:
        ident_arr = np.zeros((0, 2), dtype=np.int64)
    else:
        ident_arr = np.asarray(ident, dtype=np.int64).reshape(-1, 2)
        if ident_arr.size and (ident_arr.min() < 0 or ident_arr.max() >= V):
            raise MeshError("ident vertex index out of range")
    node_of, num_nodes = _resolve_ident(V, ident_arr)

    # canonical ordering: sort, then restore positive orientation
    cells = np.sort(cells, axis=1)
    repeats = np.any(cells[:, 1:] == cells[:, :-1], axis=1)
    det = np.linalg.det(verts[cells[:, 1:]] - verts[cells[:, :1]])
    flat = np.abs(det) < 1e-300
    bad = np.flatnonzero(repeats | flat)
    if bad.size:
        cid = bad[0]
        if repeats[cid]:
            raise DegenerateCellError(f"cell {cid} repeats a vertex: {cells[cid].tolist()}")
        raise DegenerateCellError(f"cell {cid} has zero volume")
    neg = det < 0
    cells[neg, -2:] = cells[neg, -2:][:, ::-1]

    mesh = Mesh(n, verts, cells, ident_arr, node_of, num_nodes)

    # every node used, 1-skeleton connected
    used = np.zeros(num_nodes, dtype=bool)
    used[mesh.cells_nodes.ravel()] = True
    if not used.all():
        raise DisconnectedMeshError("mesh has nodes not contained in any cell")
    if _resolve_ident(num_nodes, mesh.edges[0])[1] != 1:
        raise DisconnectedMeshError("1-skeleton is not connected")
    return mesh


def ensure_function(mesh, f):
    """Validate a per-node scalar field and return it as a float array."""
    f = np.asarray(f, dtype=float)
    if f.shape != (mesh.num_nodes,):
        raise MeshError(
            f"function field must have shape ({mesh.num_nodes},), got {f.shape}"
        )
    if not np.all(np.isfinite(f)):
        raise MeshError("function field has non-finite entries")
    return f


def find_node(mesh, coords, tol=1e-9):
    """Node id of the chart vertex at the given coordinates."""
    coords = np.asarray(coords, dtype=float)
    d = np.linalg.norm(mesh.verts - coords, axis=1)
    i = int(np.argmin(d))
    if d[i] > tol:
        raise MeshError(f"no vertex at {coords.tolist()} (closest is {d[i]:.3g} away)")
    return int(mesh.node_of[i])


# -- file format ----------------------------------------------------------


def write_mesh(mesh, path):
    lines = [f"dpmesh v1 {mesh.dim}"]
    for v in mesh.verts:
        lines.append("v " + " ".join(repr(float(x)) for x in v))
    for c in mesh.cells:
        lines.append("c " + " ".join(str(int(i)) for i in c))
    for a, b in mesh.ident:
        lines.append(f"ident {int(a)} {int(b)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mesh(path):
    verts, cells, ident = [], [], []
    with open(path) as fh:
        raw = fh.readlines()
    header = None
    for lineno, line in enumerate(raw, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if header is None:
            if len(parts) != 3 or parts[0] != "dpmesh" or parts[1] != "v1":
                raise ParseError("expected header 'dpmesh v1 <n>'", path, lineno)
            try:
                header = int(parts[2])
            except ValueError:
                raise ParseError(f"bad dimension {parts[2]!r}", path, lineno) from None
            if header not in (1, 2, 3):
                raise ParseError(f"dimension must be 1..3, got {header}", path, lineno)
            continue
        kind, args = parts[0], parts[1:]
        try:
            if kind == "v":
                if len(args) != header:
                    raise ParseError(
                        f"vertex needs {header} coordinates, got {len(args)}",
                        path,
                        lineno,
                    )
                verts.append([float(x) for x in args])
            elif kind == "c":
                if len(args) != header + 1:
                    raise ParseError(
                        f"cell needs {header + 1} indices, got {len(args)}",
                        path,
                        lineno,
                    )
                cells.append([int(x) for x in args])
            elif kind == "ident":
                if len(args) != 2:
                    raise ParseError("ident needs 2 indices", path, lineno)
                ident.append([int(x) for x in args])
            else:
                raise ParseError(f"unknown record {kind!r}", path, lineno)
        except ValueError:
            raise ParseError(f"bad number in {text!r}", path, lineno) from None
    if header is None:
        raise ParseError("empty mesh file", path)
    if not verts:
        raise ParseError("mesh file has no vertices", path)
    try:
        return build_mesh(np.array(verts), np.array(cells, dtype=np.int64).reshape(len(cells), -1), ident or None)
    except MeshError as exc:
        raise ParseError(str(exc), path) from exc


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
