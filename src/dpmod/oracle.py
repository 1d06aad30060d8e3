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

The grid's axis 0 is x's and the other free nodes follow in node order, so
each index of axis 0 is one slice of fixed f(x).  Axis 0 ascends, and the
slices are walked from the top.  Per slice the pair masks are ANDed, the
cell terms added, and every point that fails a mask or has E > 1 gets
E = +inf; the first slice with a finite least E gives the round's point:
the point of that least E, the first one in node order on a tie (the
slice's axes follow node order, so this is ``argmin``'s first minimum).
Only the slices above the top feasible one, and that one, are evaluated.
A slice holds at most 21^4 = 194 481 points in a refinement round (at most
5 free axes), and at most the point budget over the length of x's axis in
the initial pass.  The value is symmetric, so the search runs as
(min(x, y), max(x, y)).

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
    depend on, so each round takes the point of least energy in the top
    feasible slice, the minimum-energy completion of the best f(x) on the
    grid; the next window centers on it.  Taking an arbitrary point of the
    argmax set instead lets the windows drift away from the true optimizer.

    Each round's search is separable and walks one slice of f(x) at a time
    (see the module docstring): pair masks and cell terms are computed on
    their own sub-grids, and only the top slices are evaluated.
    """
    mesh = params.mesh
    if g.mesh is not mesh or g0 is not None and g0.mesh is not mesh:
        raise MeshMismatchError("g or g0 lives on a different mesh than params")
    N = mesh.num_nodes
    if N > MAX_ORACLE_NODES:
        raise OracleError(f"brute force limited to {MAX_ORACLE_NODES} nodes, mesh has {N}")
    if not (0 <= x < N and 0 <= y < N):
        raise OracleError(f"node index out of range: {x}, {y}")
    if x == y:
        raise OracleError("source equals sink")
    x, y = min(x, y), max(x, y)     # one orientation: see the module docstring
    D = params.D
    if math.isinf(D):
        raise OracleError("brute force needs a finite cap D")
    t = params.t
    d0y = params.d0[y, :]
    B = D * (d0y ** t).max()

    # x's grid axis first, the other free nodes after it in node order
    free = [x] + [v for v in range(N) if v not in (x, y)]
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

    def evaluate(axes):
        """The point of least energy in the top feasible slice of f(x), and
        its f(x); (-inf, None) when no grid point is feasible."""
        sizes = tuple(len(ax) for ax in axes)

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

        # slices of fixed f(x) from the top: axes[0] ascends
        slice_shape = sizes[1:]
        for i in reversed(range(sizes[0])):
            ok = np.ones(slice_shape, dtype=bool)
            for m in masks:
                ok &= m[i if m.shape[0] > 1 else 0]
            if not ok.any():
                continue
            E = np.zeros(slice_shape)
            for term in terms:          # cell order: E's bits depend on it
                E += term[i if term.shape[0] > 1 else 0]
            E[~(ok & (E <= 1.0))] = np.inf
            # the slice's other axes follow node order, so argmin's first
            # minimum is the first in node order
            k = int(np.argmin(E))
            if E.flat[k] == np.inf:
                continue
            best_point = np.zeros(N)
            for v, ax, j in zip(free, axes, (i,) + np.unravel_index(k, slice_shape)):
                best_point[v] = ax[j]
            return float(best_point[x]), best_point
        return -np.inf, None

    # initial pass: step B/50, halved resolution until within budget
    step = B / 50.0
    while True:
        axes = [_free_axis_values(-caps[j], caps[j], step) for j in range(len(free))]
        if np.prod([float(len(ax)) for ax in axes]) <= _POINT_BUDGET:
            break
        step *= 2.0
    best_val, best_point = evaluate(axes)
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
        val, point = evaluate(axes)
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
