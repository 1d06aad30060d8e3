"""Brute-force and closed-form oracles for tiny instances.

These share no algorithmic machinery with the Newton solver: the grid
oracle maximizes f(x) by dense search over the free node values, checking
feasibility by direct evaluation of the p-energy and Holder seminorm, and
the 1-D oracle is pure calculus.

Separable grid search
---------------------
Each cell's energy term depends only on the values at that cell's 2-3 nodes,
and each Holder test only on its pair's 2 values.  So every term is evaluated
once on the small sub-grid of the axes it touches, and the product grid only
broadcasts: it ANDs the pair masks and adds the cell terms.  The results are
the same, bit for bit, as a search that evaluates every term at every grid
point: each point still gets the same per-point formula for each term, and
the cell terms are still added in cell order starting from 0.

The grid's axis 0 is x's; the other free nodes follow in node order.  The
product grid is cut into blocks that are contiguous runs in C order and
never span two values of axis 0, so each block lies in one slice of fixed
f(x).  A point's score is f(x) - tie E with tie > 0 and E >= 0, and
rounding is monotone, so the slice's f(x) bounds every score in the block.
Blocks are visited by descending bound, and the search stops at the first
block whose bound is below the best score so far: usually only the top
feasible slice is evaluated.  The best is kept as a (score, index) pair,
with the index in the C order of the grid whose axes follow node order, and
replaced on a higher score, or on an equal score at a smaller index; within
a block the smallest index among its equal maxima competes.  So the result
is the first maximum in node-order C order whatever the axis and visit
orders: the same point a full scan of that grid keeps.  Pair masks that do
not vary over the blocked axes are ANDed once per round, and a block whose
masks leave no point skips its energy sum.  The value is symmetric, so the
search runs as (min(x, y), max(x, y)).

1-D closed form (derivation)
----------------------------
On a chain with per-cell length density a = sqrt(g) (so |grad f|_g = f'/a and
dV_g = a dx), the p-energy is  E = integral |f'|^p a^{1-p} dx.  Maximizing
f(end) - f(0) under E <= 1, the Lagrange condition gives
f' proportional to (a^{1-p})^{-1/(p-1)} = a, i.e. the extremal is linear in
g-arclength.  Writing l = integral a dx for the total length, f' = c a gives
E = c^p l, so c = l^{-1/p} and the value is l^{(p-1)/p}.  With the cap the
endpoint bound D d_{g0}(ends)^{(p-1)/p} applies; when the uncapped value
exceeds it, scaling the linear candidate to hit the cap is optimal (the cap
is itself an upper bound for any feasible f).  Either way the candidate is
checked against every interior vertex-pair Holder constraint; if one binds,
the closed form is invalid and the caller must fall back to the grid oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MeshMismatchError, OracleError

MAX_ORACLE_NODES = 6
_POINT_BUDGET = 2_000_000
_CHUNK = 262_144


def _free_axis_values(lo, hi, pitch):
    """Symmetric-ish grid on [lo, hi] with the given pitch, always >= 1 point."""
    k_lo = math.floor(-lo / pitch)
    k_hi = math.floor(hi / pitch)
    return np.arange(-k_lo, k_hi + 1) * pitch


def brute_force_dp(x, y, g, g0, params):
    """Dense grid maximum of f(x) over {E_p <= 1, H <= D, f(y) = 0}.

    Initial step B/50 (coarsened if the full product grid would exceed the
    point budget), then local refinement rounds of 21 points per axis in
    windows of +-3 steps, shrinking the step 0.3x per round until it is
    <= B/50000.  The argmax of f(x) is degenerate in the axes f(x) does not
    depend on, so a micro tie-break toward the smallest p-energy (far below
    one grid step) pins each round's best point to the minimum-energy
    completion; without it the windows recenter on an arbitrary point of the
    argmax set and can drift away from the true optimizer.

    Each round's search is separable (see the module docstring).  Pair masks
    and cell terms are computed on their own sub-grids, and the product grid,
    x's axis first, is cut into C-order blocks of at most ``_CHUNK`` points
    within one value of f(x).  Blocks are visited by descending f(x), which
    bounds every score in the block, until that bound falls below the best
    score; the (score, node-order C index) tie rule keeps the first maximum
    in the C order of the node-ordered grid, so the value is the same, bit
    for bit, as that of a full scan of that grid.
    """
    mesh = params.mesh
    if g.mesh is not mesh or g0 is not None and g0.mesh is not mesh:
        raise MeshMismatchError("g or g0 lives on a different mesh than params")
    N = mesh.num_nodes
    if N > MAX_ORACLE_NODES:
        raise OracleError(f"brute force limited to {MAX_ORACLE_NODES} nodes, mesh has {N}")
    if x == y:
        raise OracleError("source equals sink")
    x, y = min(x, y), max(x, y)     # one orientation: see the module docstring
    D = params.D
    if math.isinf(D):
        raise OracleError("brute force needs a finite cap D")
    t = params.t
    d0y = params.d0[y, :]
    B = D * (d0y ** t).max()

    # x's grid axis first, the other free nodes after it in node order;
    # node_order[i] is the axis of the i-th free node in node order
    free = [x] + [v for v in range(N) if v not in (x, y)]
    node_order = np.argsort(free)
    caps = np.array([min(B, D * d0y[v] ** t) for v in free])

    # energy and Holder data for vectorized feasibility checks
    Binv = mesh.gradient_operator()
    Ginv = np.linalg.inv(g.tensors)
    w = np.sqrt(np.linalg.det(g.tensors)) * mesh.volumes
    cn = mesh.cells_nodes
    iu, iv = params.iu, params.iv
    inv_dt = params.d0[iu, iv] ** (-t)
    p = params.p

    axis_of = {v: j for j, v in enumerate(free)}

    def evaluate(axes, tie):
        """Best feasible f(x) over the product grid; ``tie`` breaks the
        degenerate argmax toward low energy (must be << one grid step)."""
        sizes = tuple(len(ax) for ax in axes)
        node_sizes = tuple(sizes[j] for j in node_order)

        def subgrid(nodes):
            """Values of ``nodes`` (rows in C order) over the sub-grid of the
            free axes they touch, and that sub-grid's broadcast shape."""
            own = sorted({axis_of[v] for v in nodes if v != y})
            grids = np.meshgrid(*(axes[j] for j in own), indexing="ij")
            cols = np.zeros((grids[0].size, len(nodes)))
            for i, v in enumerate(nodes):
                if v != y:
                    cols[:, i] = grids[own.index(axis_of[v])].ravel()
            shape = tuple(sizes[j] if j in own else 1 for j in range(len(sizes)))
            return cols, shape

        # Holder masks per pair, energy terms per cell, each on its own sub-grid
        masks = []
        for k in range(iu.size):
            F, shape = subgrid([iu[k], iv[k]])
            masks.append((np.abs(F[:, 0] - F[:, 1]) * inv_dt[k] <= D).reshape(shape))
        terms = []
        for c in range(mesh.num_cells):
            F, shape = subgrid(cn[c])
            df = F @ Binv[c].T
            q = np.einsum("ki,ij,kj->k", df, Ginv[c], df)
            terms.append((w[c] * np.maximum(q, 0.0) ** (p / 2.0)).reshape(shape))
        F, shape = subgrid([x])
        fx = F[:, 0].reshape(shape)

        # blocks of at most _CHUNK points in C order: single indices on the
        # axes before ``s``, a run of ``rows`` indices on axis ``s``.  s >= 1
        # whenever there is a second axis, so a block never spans two values
        # of x: its bound is the exact f(x) of its slice
        s = min(1, len(sizes) - 1)
        while math.prod(sizes[s + 1:]) > _CHUNK:
            s += 1
        rows = _CHUNK // math.prod(sizes[s + 1:]) if s else 1

        def part(a, sel):
            """Block ``sel`` of a broadcast-shaped array (its size-1 axes stay whole)."""
            return a[tuple(sl if n > 1 else slice(None) for sl, n in zip(sel, a.shape))]

        # pair masks that do not vary over the blocked axes 0..s: ANDed once
        base = np.ones((1,) * (s + 1) + sizes[s + 1:], dtype=bool)
        varying = []
        for m in masks:
            if any(n > 1 for n in m.shape[:s + 1]):
                varying.append(m)
            else:
                base &= m

        # visit blocks by descending f(x), which bounds every score in the
        # block; the sort is stable, so equal bounds stay in C order
        blocks = []
        for lead in np.ndindex(*sizes[:s]):
            for lo in range(0, sizes[s], rows):
                sel = tuple(slice(i, i + 1) for i in lead) + (slice(lo, lo + rows),)
                blocks.append((float(part(fx, sel).max()), lead, lo, sel))
        blocks.sort(key=lambda block: -block[0])
        best_score, best_index, best_at = -np.inf, math.inf, None
        for bound, lead, lo, sel in blocks:
            if bound < best_score:
                break
            shape = (1,) * s + (min(rows, sizes[s] - lo),) + sizes[s + 1:]
            start = lead + (lo,) + (0,) * (len(sizes) - s - 1)
            ok = np.broadcast_to(base, shape).copy()
            for m in varying:
                ok &= part(m, sel)
            if not ok.any():
                continue
            E = np.zeros(shape)
            for term in terms:          # cell order: E's bits depend on it
                E += part(term, sel)
            ok &= E <= 1.0
            if not ok.any():
                continue
            # the first maximum in the C order of the grid in node order,
            # whatever the axis order and the order the blocks are visited
            # in: a block is a box, so its own node-ordered C order agrees
            score = np.where(ok, part(fx, sel) - tie * E, -np.inf).transpose(node_order)
            k = int(np.argmax(score))
            at = np.add(np.unravel_index(k, score.shape), [start[j] for j in node_order])
            index = np.ravel_multi_index(at, node_sizes)
            top = float(score.flat[k])
            if top > best_score or (top == best_score and index < best_index):
                best_score, best_index, best_at = top, index, at
        if best_at is None:
            return -np.inf, None
        best_point = np.zeros(N)
        for v, i in zip(sorted(free), best_at):     # best_at is in node order
            best_point[v] = axes[axis_of[v]][i]
        return float(best_point[x]), best_point

    # initial pass: step B/50, halved resolution until within budget
    step = B / 50.0
    while True:
        axes = [_free_axis_values(-caps[j], caps[j], step) for j in range(len(free))]
        if np.prod([float(len(ax)) for ax in axes]) <= _POINT_BUDGET:
            break
        step *= 2.0
    best_val, best_point = evaluate(axes, 1e-3 * step)
    if best_point is None:
        raise OracleError("no feasible grid point, yet f = 0 is always feasible")

    # local refinement until the final step is <= B/50000
    while step > B / 50000.0:
        half = 3.0 * step
        axes = []
        for j, v in enumerate(free):
            lo = max(-caps[j], best_point[v] - half)
            hi = min(caps[j], best_point[v] + half)
            axes.append(np.linspace(lo, hi, 21))
        step *= 0.3
        val, point = evaluate(axes, 1e-3 * step)
        if point is not None:
            best_point = point
            best_val = max(best_val, val)
    return best_val


def analytic_1d_dp(a, lengths, p, D, a0=None):
    """Closed-form capped distance across a 1-D chain (see module docstring).

    a, a0 : per-cell length densities sqrt(g), sqrt(g0) (a0 defaults to a)
    lengths : per-cell chart lengths
    Returns (value, clean); ``clean`` is False when an interior vertex pair
    violates its Holder bound, in which case the value is not trustworthy
    and the caller should use brute_force_dp.
    """
    a = np.asarray(a, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    a0 = a if a0 is None else np.asarray(a0, dtype=float)
    if a.ndim != 1 or a.shape != lengths.shape or a0.shape != a.shape:
        raise OracleError("analytic oracle needs matching 1-D per-cell arrays")
    if a.size == 0 or np.any(a <= 0) or np.any(lengths <= 0) or np.any(a0 <= 0):
        raise OracleError("densities and lengths must be positive")
    if not p > 1:
        raise OracleError(f"need p > 1, got {p}")
    t = (p - 1.0) / p

    pos_g = np.concatenate([[0.0], np.cumsum(a * lengths)])     # g-arclength
    pos_0 = np.concatenate([[0.0], np.cumsum(a0 * lengths)])    # g0-arclength
    ell = pos_g[-1]
    v_unc = ell ** t
    cap = D * pos_0[-1] ** t

    if v_unc <= cap:
        value, f = v_unc, pos_g * ell ** (-1.0 / p)
    else:
        value, f = cap, (cap / v_unc) * pos_g * ell ** (-1.0 / p)

    clean = True
    for i in range(len(f)):
        for j in range(i + 1, len(f)):
            if abs(f[j] - f[i]) > D * (pos_0[j] - pos_0[i]) ** t * (1 + 1e-12):
                clean = False
    return float(value), clean
