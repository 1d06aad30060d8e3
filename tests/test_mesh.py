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
    build_mesh,
    ensure_function,
    find_node,
    read_mesh,
    uniform_subdivide,
    write_mesh,
)

from conftest import chain_mesh, strip_mesh


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


# -- construction and validation -------------------------------------------

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


def test_ident_glues_nodes():
    mesh, _ = make_flat(2, 4, torus=True)
    assert mesh.num_nodes == 16           # 4x4 interior grid
    assert mesh.num_verts == 25           # chart keeps the duplicated seam
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
    edge_nodes, edge_vecs, edge_cells = mesh.edges
    assert len(edge_nodes) == 3 * 16
    assert all(len(c) in (1, 2) for c in edge_cells)
    # interior manifold: every edge of a torus bounds exactly two cells
    assert all(len(c) == 2 for c in edge_cells)
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
        nodes, vecs, cells = mesh.edges
        ref_nodes, ref_vecs, ref_cells = reference_edges(mesh)
        assert nodes.dtype == ref_nodes.dtype and np.array_equal(nodes, ref_nodes)
        assert vecs.shape == ref_vecs.shape and vecs.tobytes() == ref_vecs.tobytes()
        assert [c.tolist() for c in cells] == [c.tolist() for c in ref_cells]
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
    assert np.array_equal(fine.verts[: mesh.num_verts], mesh.verts)


def test_subdivision_rejects_identified_mesh():
    mesh, _ = make_flat(2, 3, torus=True)
    with pytest.raises(MeshError):
        uniform_subdivide(mesh)
