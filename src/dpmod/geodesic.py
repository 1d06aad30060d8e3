"""Graph (1-skeleton) approximation of Riemannian distances.

Each mesh edge gets the length sqrt(e^T G_bar e) where G_bar is the
volume-weighted average of the metric over the cells incident to the edge;
distances are shortest paths in the resulting weighted graph, computed by
Dijkstra from every node (binary heap, ties broken toward the smaller node
index so runs are reproducible bit for bit).
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import MeshMismatchError


class DistanceMatrix:
    """All-pairs node distances for one (mesh, metric) pair.

    dist is a dense (N, N) symmetric float array with zero diagonal.
    """

    def __init__(self, mesh, dist):
        self.mesh = mesh
        self.dist = dist

    def __getitem__(self, pair):
        u, v = pair
        return float(self.dist[u, v])

    def diameter(self):
        return float(self.dist.max())


def _check_metric(mesh, metric):
    if metric.mesh is not mesh and metric.tensors.shape[0] != mesh.num_cells:
        raise MeshMismatchError("metric was built over a different mesh")


def edge_lengths(mesh, metric):
    """(E,) lengths of all 1-skeleton edges under the cellwise metric."""
    _check_metric(mesh, metric)
    edge_nodes, edge_vecs, edge_cells = mesh.edges
    vols = mesh.volumes
    G = metric.tensors
    out = np.empty(len(edge_nodes))
    for k, cells in enumerate(edge_cells):
        w = vols[cells]
        Gbar = np.tensordot(w, G[cells], axes=(0, 0)) / w.sum()
        e = edge_vecs[k]
        out[k] = np.sqrt(e @ Gbar @ e)
    return out


def _adjacency(mesh, lengths):
    adj = [[] for _ in range(mesh.num_nodes)]
    edge_nodes = mesh.edges[0]
    for k, (u, v) in enumerate(edge_nodes):
        w = float(lengths[k])
        adj[u].append((v, w))
        adj[v].append((u, w))
    for lst in adj:
        lst.sort()
    return adj

def _dijkstra(adj, source):
    N = len(adj)
    dist = np.full(N, np.inf)
    dist[source] = 0.0
    done = np.zeros(N, dtype=bool)
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


def all_pairs_distances(mesh, metric):
    """Dense all-pairs graph distances as a :class:`DistanceMatrix`."""
    lengths = edge_lengths(mesh, metric)
    adj = _adjacency(mesh, lengths)
    N = mesh.num_nodes
    dist = np.empty((N, N))
    for s in range(N):
        dist[s] = _dijkstra(adj, s)
    # enforce exact symmetry (heap order can differ per source by rounding)
    dist = np.minimum(dist, dist.T)
    np.fill_diagonal(dist, 0.0)
    return DistanceMatrix(mesh, dist)


def diameter(mesh, metric):
    """Largest node-pair distance under the graph metric."""
    return all_pairs_distances(mesh, metric).diameter()
