"""Mesh construction, geometry operators, file format, subdivision."""

import numpy as np
import pytest

from dpmod.errors import (
    DegenerateCellError,
    DisconnectedMeshError,
    MeshError,
    ParseError,
)
from dpmod.families import make_flat
from dpmod.mesh import (
    _resolve_ident,
    build_mesh,
    ensure_function,
    find_node,
    read_mesh,
    write_mesh,
)

from conftest import chain_mesh, strip_mesh, uniform_subdivide


def reference_edges(mesh):
    """Edge table by a scan over the cell 1-faces with a dict of keys."""
    n = mesh.dim
    local_pairs = [(a, b) for a in range(n + 1) for b in range(a + 1, n + 1)]
    seen = {}
    edge_nodes, edge_vecs, edge_cells = [], [], []
    node = mesh.node_of
    for cid, cell in enumerate(mesh.cells):
        for a, b in local_pairs:
            va, vb = cell[a], cell[b]
            na, nb = node[va], node[vb]
            if na < nb:
                vec = mesh.verts[vb] - mesh.verts[va]
                key_nodes = (int(na), int(nb))
            else:
                vec = mesh.verts[va] - mesh.verts[vb]
                key_nodes = (int(nb), int(na))
            key = key_nodes + tuple(np.round(vec, 12))
            idx = seen.get(key)
            if idx is None:
                seen[key] = len(edge_nodes)
                edge_nodes.append(key_nodes)
                edge_vecs.append(vec)
                edge_cells.append([cid])
            elif edge_cells[idx][-1] != cid:
                edge_cells[idx].append(cid)
    return (
        np.array(edge_nodes, dtype=np.int64),
        np.array(edge_vecs, dtype=float),
        [np.array(c, dtype=np.int64) for c in edge_cells],
    )


def reference_union_find(num, pairs):
    """Python union-find that hangs the larger root under the smaller."""
    parent = np.arange(num)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    rep = np.array([find(i) for i in range(num)], dtype=np.int64)
    reps = np.unique(rep)
    return np.searchsorted(reps, rep), len(reps)


# Per-dimension loop builders: (verts, cells, ident) of the unit box/torus
# with vertices numbered x fastest, as make_flat numbers them.

def _ref_flat_1d(R, torus):
    verts = np.linspace(0.0, 1.0, R + 1).reshape(-1, 1)
    cells = [[i, i + 1] for i in range(R)]
    return verts, cells, [[R, 0]] if torus else None


def _ref_flat_2d(R, torus):
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
    return verts, cells, ident


_KUHN_PATHS = [
    (0, 1, 3, 7), (0, 1, 5, 7), (0, 2, 3, 7),
    (0, 2, 6, 7), (0, 4, 5, 7), (0, 4, 6, 7),
]


def _ref_flat_3d(R, torus):
    coords = np.linspace(0.0, 1.0, R + 1)
    verts = np.array([[x, y, z] for z in coords for y in coords for x in coords])
    vid = lambda i, j, k: (k * (R + 1) + j) * (R + 1) + i
    cells = []
    for k in range(R):
        for j in range(R):
            for i in range(R):
                corner = [vid(i + (b & 1), j + ((b >> 1) & 1), k + ((b >> 2) & 1))
                          for b in range(8)]
                cells += [[corner[b] for b in path] for path in _KUHN_PATHS]
    ident = None
    if torus:
        pairs = set()
        for u in range(R + 1):
            for w in range(R + 1):
                pairs.add((vid(R, u, w), vid(0, u, w)))
                pairs.add((vid(u, R, w), vid(u, 0, w)))
                pairs.add((vid(u, w, R), vid(u, w, 0)))
        ident = sorted(pairs)
    return verts, cells, ident


REFERENCE_BUILDERS = {1: _ref_flat_1d, 2: _ref_flat_2d, 3: _ref_flat_3d}


# -- construction and validation -------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("torus", [False, True])
def test_flat_matches_reference_builders(n, torus):
    for R in (2, 3, 4, 6, 10):
        mesh, _ = make_flat(n, R, torus)
        verts, cells, ident = REFERENCE_BUILDERS[n](R, torus)
        ref = build_mesh(verts, np.array(cells), ident)
        assert mesh.verts.tobytes() == ref.verts.tobytes()
        assert mesh.cells.tobytes() == ref.cells.tobytes()
        node_of, num_nodes = reference_union_find(len(verts), ident or [])
        assert mesh.node_of.tobytes() == node_of.tobytes()
        assert mesh.num_nodes == num_nodes
        ref_ident = np.array(ident or [], dtype=np.int64).reshape(-1, 2)
        if n == 2:   # the same seam pairs, sorted instead of interleaved
            ref_ident = np.unique(ref_ident, axis=0)
        assert mesh.ident.tobytes() == ref_ident.tobytes()
        for new, old in zip(mesh.edges, ref.edges, strict=True):
            assert new.tobytes() == old.tobytes()


def test_resolve_ident_matches_union_find():
    rng = np.random.default_rng(11)
    for _ in range(300):
        num = int(rng.integers(1, 40))
        pairs = rng.integers(0, num, size=(int(rng.integers(0, 2 * num)), 2))
        node_of, count = _resolve_ident(num, pairs)
        ref_node_of, ref_count = reference_union_find(num, pairs)
        assert node_of.tobytes() == ref_node_of.tobytes() and count == ref_count
    # a long path in shuffled node and edge order: pointer jumping keeps the
    # number of rounds logarithmic in its length
    order = rng.permutation(5000)
    pairs = np.column_stack([order[:-1], order[1:]])[rng.permutation(4999)]
    node_of, count = _resolve_ident(5000, pairs)
    assert count == 1 and not node_of.any()
    ref_node_of, _ = reference_union_find(5000, pairs)
    assert node_of.tobytes() == ref_node_of.tobytes()


def test_build_rejects_degenerate_cell():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DegenerateCellError):
        build_mesh(verts, np.array([[0, 1, 2]]))  # collinear
    with pytest.raises(DegenerateCellError):
        build_mesh(verts, np.array([[0, 1, 1]]))  # repeated vertex


def test_build_names_first_bad_cell():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    good, flat, repeat = [0, 1, 3], [0, 1, 2], [3, 4, 4]
    with pytest.raises(DegenerateCellError, match=r"^cell 1 has zero volume$"):
        build_mesh(verts, np.array([good, flat, repeat]))
    with pytest.raises(DegenerateCellError,
                       match=r"^cell 1 repeats a vertex: \[3, 4, 4\]$"):
        build_mesh(verts, np.array([good, repeat, flat]))
    with pytest.raises(DegenerateCellError,
                       match=r"^cell 1 joins identified vertices 1 and 2$"):
        build_mesh(np.array([[0.0], [1.0], [2.0], [3.0]]),
                   np.array([[0, 1], [1, 2], [2, 3]]), [[1, 2], [2, 3]])


def test_build_rejects_disconnected():
    verts = np.array([[0.0], [1.0], [5.0], [6.0]])
    with pytest.raises(DisconnectedMeshError):
        build_mesh(verts, np.array([[0, 1], [2, 3]]))


def test_build_rejects_bad_indices_and_dims():
    with pytest.raises(MeshError):
        build_mesh(np.array([[0.0], [1.0]]), np.array([[0, 2]]))
    with pytest.raises(MeshError):
        build_mesh(np.zeros((3, 4)), np.array([[0, 1, 2]]))  # n = 4
    chain = np.array([[0.0], [1.0], [2.0]])
    with pytest.raises(MeshError, match="vertex coordinates must be finite"):
        build_mesh(np.array([[0.0], [np.nan]]), np.array([[0, 1]]))
    with pytest.raises(MeshError, match=r"cells must be \(C, 2\) for dimension 1, got \(1, 3\)"):
        build_mesh(chain, np.array([[0, 1, 2]]))
    with pytest.raises(MeshError, match="ident vertex index out of range"):
        build_mesh(chain, np.array([[0, 1], [1, 2]]), [[0, 5]])


def test_ident_glues_nodes():
    mesh, _ = make_flat(2, 4, torus=True)
    assert mesh.num_nodes == 16           # 4x4 interior grid
    assert mesh.verts.shape[0] == 25           # chart keeps the duplicated seam
    # the seam copies resolve to the same node
    assert find_node(mesh, (0.0, 0.0)) == find_node(mesh, (1.0, 0.0))
    assert find_node(mesh, (0.0, 0.25)) == find_node(mesh, (1.0, 0.25))
    assert find_node(mesh, (0.0, 0.0)) == find_node(mesh, (1.0, 1.0))


def test_find_node_missing():
    mesh = chain_mesh([0.0, 1.0])
    with pytest.raises(MeshError):
        find_node(mesh, [0.31])


def test_ensure_function_validation():
    mesh = chain_mesh([0.0, 0.5, 1.0])
    with pytest.raises(MeshError):
        ensure_function(mesh, np.zeros(2))
    with pytest.raises(MeshError):
        ensure_function(mesh, [0.0, np.nan, 1.0])


# -- geometry operators ------------------------------------------------------

@pytest.mark.parametrize("n,resolution", [(1, 7), (2, 5), (3, 3)])
def test_gradients_exact_for_affine(n, resolution, rng):
    mesh, _ = make_flat(n, resolution, torus=False)
    coeff = rng.normal(size=n)
    # boxes have no identifications: node order equals vertex order
    f = mesh.verts @ coeff + 0.37
    grads = np.einsum("cij,cj->ci", mesh.gradient_operator(), f[mesh.cells_nodes])
    assert np.abs(grads - coeff).max() < 1e-12


@pytest.mark.parametrize("n,resolution", [(1, 5), (2, 4), (3, 2)])
@pytest.mark.parametrize("torus", [False, True])
def test_unit_box_volumes(n, resolution, torus):
    mesh, _ = make_flat(n, resolution, torus=torus)
    assert abs(mesh.volumes.sum() - 1.0) < 1e-12
    assert mesh.volumes.min() > 0.0


def test_edge_table_counts_and_dedup():
    # R^2 squares split NE: per square 1 horizontal + 1 vertical + 1 diagonal
    mesh, _ = make_flat(2, 4, torus=True)
    edge_nodes, _, edge_cells, edge_starts = mesh.edges
    assert len(edge_nodes) == 3 * 16
    assert edge_starts[0] == 0 and edge_starts[-1] == edge_cells.size
    # interior manifold: every edge of a torus bounds exactly two cells
    assert np.all(np.diff(edge_starts) == 2)
    assert np.all(edge_nodes[:, 0] < edge_nodes[:, 1])


def _seam_mesh():
    # 3x3 torus whose seam copy of (1, 1/3) sits 1e-13 left: the seam edge's
    # x-component rounds to -0.0 through that copy and to 0.0 through (0, 1/3)
    mesh, _ = make_flat(2, 3, torus=True)
    verts = mesh.verts.copy()
    seam = int(np.flatnonzero((verts[:, 0] == 1.0) & (np.abs(verts[:, 1] - 1 / 3) < 1e-9))[0])
    verts[seam, 0] -= 1e-13
    return build_mesh(verts, mesh.cells, mesh.ident)


def test_edge_table_matches_reference_loop():
    rng = np.random.default_rng(3)
    meshes = [chain_mesh([0.0, 0.3, 1.0, 1.1]), strip_mesh(4, 2, jitter=0.2, rng=rng),
              uniform_subdivide(make_flat(2, 3)[0]), uniform_subdivide(make_flat(3, 2)[0]),
              _seam_mesh()]
    meshes += [make_flat(n, r, torus=t)[0]
               for n, r in [(1, 5), (2, 4), (3, 3)] for t in (False, True)]
    for mesh in meshes:
        nodes, vecs, cells, starts = mesh.edges
        ref_nodes, ref_vecs, ref_cells = reference_edges(mesh)
        assert nodes.dtype == ref_nodes.dtype and np.array_equal(nodes, ref_nodes)
        assert vecs.shape == ref_vecs.shape and vecs.tobytes() == ref_vecs.tobytes()
        assert cells.dtype == np.int64 and starts.size == len(ref_cells) + 1
        assert [c.tolist() for c in np.split(cells, starts[1:-1])] == \
            [c.tolist() for c in ref_cells]
    # the -0.0 and 0.0 seam faces are one edge, as on the unperturbed torus
    assert len(_seam_mesh().edges[0]) == 3 * 9


def test_gradient_constant_function_on_torus():
    mesh, _ = make_flat(2, 4, torus=True)
    f = np.full(mesh.num_nodes, 3.25)
    grads = np.einsum("cij,cj->ci", mesh.gradient_operator(), f[mesh.cells_nodes])
    assert np.abs(grads).max() == 0.0


# -- file format -------------------------------------------------------------

@pytest.mark.parametrize("n,resolution,torus", [(1, 4, True), (2, 3, True), (3, 2, False)])
def test_mesh_roundtrip(tmp_path, n, resolution, torus):
    mesh, _ = make_flat(n, resolution, torus=torus)
    path = tmp_path / "m.txt"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert back.dim == mesh.dim
    assert np.array_equal(back.verts, mesh.verts)
    assert np.array_equal(back.cells, mesh.cells)
    assert np.array_equal(back.ident, mesh.ident)
    assert back.num_nodes == mesh.num_nodes


def _write_mesh_per_line(mesh, path):
    """Reference writer: one formatted line per vertex, cell and ident."""
    lines = [f"dpmesh v1 {mesh.dim}"]
    for v in mesh.verts:
        lines.append("v " + " ".join(repr(float(x)) for x in v))
    for c in mesh.cells:
        lines.append("c " + " ".join(str(int(i)) for i in c))
    for a, b in mesh.ident:
        lines.append(f"ident {int(a)} {int(b)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("torus", [False, True])
@pytest.mark.parametrize("n,resolution", [(1, 5), (2, 3), (3, 2)])
def test_write_mesh_bytes_match_per_line_loop(tmp_path, n, resolution, torus):
    mesh, _ = make_flat(n, resolution, torus=torus)
    fast, slow = tmp_path / "fast.txt", tmp_path / "slow.txt"
    write_mesh(mesh, fast)
    _write_mesh_per_line(mesh, slow)
    assert fast.read_bytes() == slow.read_bytes()


def _parse_error(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        read_mesh(path)
    return err.value


def test_read_mesh_bad_header_line_number(tmp_path):
    err = _parse_error(tmp_path, "dpmash v1 2\n")
    assert err.line == 1
    assert "bad.txt:1:" in str(err)


def test_read_mesh_bad_dimension(tmp_path):
    err = _parse_error(tmp_path, "dpmesh v1 4\n")
    assert err.line == 1


def test_read_mesh_bad_vertex_arity(tmp_path):
    err = _parse_error(tmp_path, "# comment\ndpmesh v1 2\nv 0.0\n")
    assert err.line == 3
    assert "coordinates" in str(err)


def test_read_mesh_bad_number_and_unknown_record(tmp_path):
    err = _parse_error(tmp_path, "dpmesh v1 1\nv zero\n")
    assert err.line == 2
    err = _parse_error(tmp_path, "dpmesh v1 1\nv 0.0\nv 1.0\nq 0 1\n")
    assert err.line == 4
    assert "unknown record" in str(err)


def test_read_mesh_empty_and_semantic_errors(tmp_path):
    assert "empty" in str(_parse_error(tmp_path, "# nothing\n"))
    # structurally fine, semantically degenerate -> still ParseError
    err = _parse_error(tmp_path, "dpmesh v1 1\nv 0.0\nv 0.0\nc 0 1\n")
    assert isinstance(err, ParseError)
    assert "no cells" in str(_parse_error(tmp_path, "dpmesh v1 1\nv 0.0\nv 1.0\n"))
    err = _parse_error(tmp_path, "dpmesh v1 x\n")
    assert err.line == 1 and "bad header numbers ['x']" in str(err)
    assert "has no vertices" in str(_parse_error(tmp_path, "dpmesh v1 1\nc 0 1\n"))
    err = _parse_error(tmp_path, "dpmesh v1 1\nv 0.0\nv 1.0\nv 2.0\nc 0 1\n")
    assert "nodes not contained in any cell" in str(err)


def test_mesh_comments_and_blank_lines(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(
        "# leading comment\n\ndpmesh v1 1   # trailing\nv 0.0\nv 1.0\nc 0 1\n"
    )
    mesh = read_mesh(path)
    assert mesh.num_nodes == 2


# -- subdivision -------------------------------------------------------------

@pytest.mark.parametrize("n,resolution,factor", [(1, 4, 2), (2, 3, 4), (3, 2, 8)])
def test_subdivision_counts_and_volume(n, resolution, factor):
    mesh, _ = make_flat(n, resolution, torus=False)
    fine = uniform_subdivide(mesh)
    assert fine.num_cells == factor * mesh.num_cells
    assert abs(fine.volumes.sum() - mesh.volumes.sum()) < 1e-12
    # original vertices keep their indices
    assert np.array_equal(fine.verts[: mesh.verts.shape[0]], mesh.verts)


def test_subdivision_rejects_identified_mesh():
    mesh, _ = make_flat(2, 3, torus=True)
    with pytest.raises(MeshError):
        uniform_subdivide(mesh)
