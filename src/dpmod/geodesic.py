"""Graph (1-skeleton) approximation of Riemannian distances.

Each mesh edge gets the length sqrt(e^T G_bar e) where G_bar is the
volume-weighted average of the metric over the cells incident to the edge;
distances are shortest paths in the resulting weighted graph.

All-pairs distances are the fixed point of Bellman-Ford relaxation, run
for a block of sources at a time over a padded neighbour table.  The result
is reproducible bit for bit and independent of the relaxation order:
floating-point addition is monotone and fl(a + w) >= a for w >= 0, so any
label-correcting method converges to the same value, the minimum over all
paths of the path's edge lengths summed left to right from the source (the
value a heap Dijkstra returns too).  That sum depends on the direction a
path is walked, so d(u, v) and d(v, u) can differ in the last bit; the
matrix is made exactly symmetric by taking the smaller of the two, in place.
"""

from __future__ import annotations

import numpy as np

from .errors import MeshMismatchError

_BLOCK = 64  # sources relaxed together, and rows per symmetrization step


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
    _, edge_vecs, edge_cells, edge_starts = mesh.edges
    n = mesh.dim
    vols = mesh.volumes
    G = metric.tensors.reshape(-1, n * n)
    counts = np.diff(edge_starts)
    out = np.empty(counts.size)
    # edges with the same number k of incident cells share one batched product
    for k in np.unique(counts):
        idx = np.flatnonzero(counts == k)
        cells = edge_cells[edge_starts[idx, None] + np.arange(k)]  # (E_k, k)
        w = vols[cells]
        Gbar = np.matmul(w[:, None, :], G[cells]).reshape(-1, n, n)
        Gbar /= w.sum(axis=1)[:, None, None]
        e = edge_vecs[idx]
        quad = np.matmul(np.matmul(e[:, None, :], Gbar), e[:, :, None])
        out[idx] = np.sqrt(quad.ravel())
    return out


def _neighbour_table(num_nodes, edge_nodes, lengths):
    """(N, K) neighbour ids and edge lengths, K the largest node degree.

    Short rows are padded with a self-loop of length inf, which never
    relaxes anything.
    """
    src = edge_nodes.T.ravel()
    dst = edge_nodes[:, ::-1].T.ravel()
    order = np.argsort(src, kind="stable")
    deg = np.bincount(src, minlength=num_nodes)
    slot = np.arange(src.size) - np.repeat(np.cumsum(deg) - deg, deg)
    nbr = np.repeat(np.arange(num_nodes)[:, None], deg.max(), axis=1)
    wt = np.full(nbr.shape, np.inf)
    nbr[src[order], slot] = dst[order]
    wt[src[order], slot] = np.concatenate([lengths, lengths])[order]
    return nbr, wt


def _bellman_ford(nbr, wt, sources):
    """(N, B) distances from each of B sources, node-major: DT[v, s]."""
    B = len(sources)
    DT = np.full((nbr.shape[0], B), np.inf)
    DT[sources, np.arange(B)] = 0.0
    cand = np.empty_like(DT)
    before = np.empty_like(DT)
    while True:
        before[...] = DT
        for k in range(nbr.shape[1]):
            # indices are in range; mode="raise" would gather into a buffer
            np.take(DT, nbr[:, k], axis=0, out=cand, mode="clip")
            cand += wt[:, k, None]
            np.minimum(DT, cand, out=DT)
        if np.array_equal(DT, before):
            return DT


def _symmetrize(dist):
    """dist = min(dist, dist.T) in place, one block of rows at a time."""
    N = dist.shape[0]
    for i0 in range(0, N, _BLOCK):
        i1 = min(i0 + _BLOCK, N)
        m = np.minimum(dist[i0:i1, i0:], dist[i0:, i0:i1].T)
        dist[i0:i1, i0:] = m
        dist[i0:, i0:i1] = m.T


def all_pairs_distances(mesh, metric):
    """Dense all-pairs graph distances as a :class:`DistanceMatrix`."""
    lengths = edge_lengths(mesh, metric)
    nbr, wt = _neighbour_table(mesh.num_nodes, mesh.edges[0], lengths)
    N = mesh.num_nodes
    dist = np.empty((N, N))
    for s0 in range(0, N, _BLOCK):
        sources = np.arange(s0, min(s0 + _BLOCK, N))
        dist[sources] = _bellman_ford(nbr, wt, sources).T
    _symmetrize(dist)
    return DistanceMatrix(mesh, dist)


def diameter(mesh, metric):
    """Largest node-pair distance under the graph metric."""
    return all_pairs_distances(mesh, metric).diameter()
