"""Graph distances: cross-checks, exact scaling, metric axioms, refinement."""

import heapq

import numpy as np
import pytest

from dpmod.errors import MeshMismatchError
from dpmod.families import make_flat, make_spike_sequence
from dpmod.geodesic import all_pairs_distances, edge_lengths
from dpmod.metric import MetricField, scale_metric

from conftest import chain_mesh, random_metric, strip_mesh, uniform_subdivide


def reference_edge_lengths(mesh, metric):
    """Edge lengths one edge at a time."""
    edge_nodes, edge_vecs, edge_cells, edge_starts = mesh.edges
    vols = mesh.volumes
    G = metric.tensors
    out = np.empty(len(edge_nodes))
    for k in range(len(edge_nodes)):
        cells = edge_cells[edge_starts[k]:edge_starts[k + 1]]
        w = vols[cells]
        Gbar = np.tensordot(w, G[cells], axes=(0, 0)) / w.sum()
        e = edge_vecs[k]
        out[k] = np.sqrt(e @ Gbar @ e)
    return out


def _dijkstra(adj, source):
    dist = np.full(len(adj), np.inf)
    dist[source] = 0.0
    done = np.zeros(len(adj), dtype=bool)
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def reference_distances(mesh, metric):
    """Binary-heap Dijkstra from every node, then min(dist, dist.T)."""
    lengths = reference_edge_lengths(mesh, metric)
    adj = [[] for _ in range(mesh.num_nodes)]
    for (u, v), w in zip(mesh.edges[0], lengths):
        adj[u].append((v, float(w)))
        adj[v].append((u, float(w)))
    for lst in adj:
        lst.sort()
    dist = np.array([_dijkstra(adj, s) for s in range(mesh.num_nodes)])
    dist = np.minimum(dist, dist.T)
    np.fill_diagonal(dist, 0.0)
    return dist


def floyd_warshall(mesh, metric):
    N = mesh.num_nodes
    D = np.full((N, N), np.inf)
    np.fill_diagonal(D, 0.0)
    lengths = edge_lengths(mesh, metric)
    for (u, v), w in zip(mesh.edges[0], lengths):
        D[u, v] = min(D[u, v], w)
        D[v, u] = D[u, v]
    for k in range(N):
        D = np.minimum(D, D[:, k : k + 1] + D[k : k + 1, :])
    return D


def test_unit_chain_distance():
    mesh = chain_mesh([0.0, 1.0, 2.0])
    dm = all_pairs_distances(mesh, MetricField.identity(mesh))
    assert dm[0, 2] == 2.0
    assert dm[0, 1] == 1.0


def test_flat_torus_diameters():
    # triangulated 4x4 torus: NE diagonals shortcut the (1/2, 1/2) point
    mesh, g0 = make_flat(2, 4, torus=True)
    assert all_pairs_distances(mesh, g0).diameter() == pytest.approx(
        np.sqrt(0.5), abs=1e-15
    )
    # unit-spacing variant scales linearly
    g16 = MetricField.constant(mesh, 16.0 * np.eye(2))
    assert all_pairs_distances(mesh, g16).diameter() == pytest.approx(
        2.0 * np.sqrt(2.0), abs=1e-14)
    mesh8, g08 = make_flat(2, 8, torus=True)
    assert all_pairs_distances(mesh8, g08).diameter() == 0.75


def test_edge_lengths_flat():
    mesh, g0 = make_flat(2, 4, torus=True)
    lengths = edge_lengths(mesh, g0)
    expected = {0.25, 0.25 * np.sqrt(2.0)}
    assert {round(float(v), 12) for v in lengths} == {round(v, 12) for v in expected}


def test_matches_floyd_warshall(rng):
    mesh, _ = make_flat(2, 4, torus=True)
    g = random_metric(rng, mesh, cond_max=30.0)
    dm = all_pairs_distances(mesh, g)
    assert np.abs(dm.dist - floyd_warshall(mesh, g)).max() < 1e-12


def test_scaling_exact(rng):
    mesh, _ = make_flat(2, 3, torus=True)
    g = random_metric(rng, mesh, cond_max=10.0)
    base = all_pairs_distances(mesh, g).dist
    doubled = all_pairs_distances(mesh, scale_metric(g, 2.0)).dist
    assert np.array_equal(doubled, 2.0 * base)  # power-of-two: bitwise
    tripled = all_pairs_distances(mesh, scale_metric(g, 3.0)).dist
    assert np.allclose(tripled, 3.0 * base, rtol=1e-14, atol=0.0)


def test_metric_axioms(rng):
    mesh, _ = make_flat(2, 4, torus=True)
    g = random_metric(rng, mesh)
    D = all_pairs_distances(mesh, g).dist
    assert np.array_equal(D, D.T)
    assert np.all(np.diag(D) == 0.0)
    off = D + np.where(np.eye(D.shape[0], dtype=bool), np.inf, 0.0)
    assert off.min() > 0.0
    viol = (D[:, None, :] - (D[:, :, None] + D[None, :, :])).max()
    assert viol <= 1e-12


def test_subdivision_never_increases(rng):
    mesh, _ = make_flat(2, 3, torus=False)
    g = random_metric(rng, mesh, cond_max=10.0)
    dm = all_pairs_distances(mesh, g).dist
    fine = uniform_subdivide(mesh)
    g_fine = MetricField(fine, np.repeat(g.tensors, 4, axis=0))
    dm_fine = all_pairs_distances(fine, g_fine).dist
    N = mesh.num_nodes  # original nodes keep their ids
    assert (dm_fine[:N, :N] - dm).max() <= 1e-12


def test_mesh_mismatch():
    mesh = chain_mesh([0.0, 1.0])
    other = chain_mesh([0.0, 0.5, 1.0])
    g_other = MetricField.identity(other)
    with pytest.raises(MeshMismatchError):
        edge_lengths(mesh, g_other)


def test_metric_of_another_mesh_with_the_same_cell_count():
    # the 4x4 torus and the 4x4 box both have 32 cells; a cell count is no
    # proof that a metric belongs to a mesh
    torus, _ = make_flat(2, 4, torus=True)
    box, g_box = make_flat(2, 4, torus=False)
    assert torus.num_cells == box.num_cells
    with pytest.raises(MeshMismatchError):
        edge_lengths(torus, g_box)
    with pytest.raises(MeshMismatchError):
        all_pairs_distances(torus, g_box)


def _bitwise_cases():
    rng = np.random.default_rng(7)
    meshes = [
        chain_mesh(np.cumsum(rng.uniform(0.1, 1.0, 9))),
        strip_mesh(5, 2, jitter=0.2, rng=rng),
        make_flat(2, 6, torus=True)[0],
        make_flat(2, 5, torus=False)[0],
        make_flat(3, 4, torus=True)[0],
        make_flat(3, 3, torus=False)[0],
        uniform_subdivide(make_flat(2, 3, torus=False)[0]),
        uniform_subdivide(make_flat(3, 2, torus=False)[0]),
    ]
    for mesh in meshes:
        g0 = MetricField.identity(mesh)
        yield mesh, g0
        yield mesh, random_metric(rng, mesh, cond_max=30.0)
        yield mesh, make_spike_sequence((mesh, g0), 2, center=mesh.verts.mean(axis=0))


def test_edge_lengths_bitwise_match_loop():
    for mesh, g in _bitwise_cases():
        assert edge_lengths(mesh, g).tobytes() == reference_edge_lengths(mesh, g).tobytes()


def test_apsp_bitwise_matches_heap_dijkstra():
    # float addition is monotone and fl(a + w) >= a, so every label-correcting
    # method reaches the same minimum over paths of left-to-right sums
    for mesh, g in _bitwise_cases():
        dist = all_pairs_distances(mesh, g).dist
        assert dist.tobytes() == reference_distances(mesh, g).tobytes()
