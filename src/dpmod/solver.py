"""Variational solver for the Holder-capped p-energy distance.

The quantity computed between nodes x and y is

    sup { |f(x) - f(y)| :  E_p(f) <= 1,  H(f) <= D }

over piecewise-linear f, where E_p(f) = sum_cells (df^T G^-1 df)^{p/2}
sqrt(det G) vol is the p-energy under the metric g and H(f) is the Holder
seminorm max_{(u,v)} |f(u) - f(v)| / d_{g0}(u,v)^t with t = (p - n)/p and
d_{g0} the background graph metric.  D = +inf drops the cap (plain p-energy
distance).

Reformulation: both constraints are 1-homogeneous, so with the gauge
Phi(f) = max(E_p(f)^{1/p}, H(f)/D) the distance equals
1 / min{ Phi(f) : f(x) - f(y) = 1 }, and the minimizer rescaled to Phi = 1
is the extremal function.  Translation invariance lets us pin f(y) = 0,
f(x) = 1 and minimize over the remaining node values.

Algorithm: one Newton screen, then barrier rounds where the cap binds.

Newton energy solve: every solve first minimizes the uncapped energy
E^(f) = sum_c w_c q_c^{p/2} over the free nodes by a damped Newton method
(_newton_energy).  The Hessian p sum_c w_c [q^{p/2-1} M_c + (p-2)
q^{p/2-2} (M_c F_c)(M_c F_c)^T] is scattered by one bincount into the free
block, with the pinned nodes sent to a dump row and column; a ridge of
1e-12 tr/N_free is added, the step comes from np.linalg.solve, an Armijo
backtracking search damps it, and the method stops when the Newton
decrement lambda^2 falls to 1e-14 E^, or to 1e-10 E^ on a step that
needed a halving (there the line search is resolving round-off).  Cells
with q_c = 0 get zero coefficients (the energy is flat there for p > 2
and not twice differentiable for p < 2).  solve_dp_unmodified returns this
minimizer.

Energy-bound screen: the capped feasible set is a subset of the uncapped
one, so if the uncapped minimizer f* already satisfies the cap with room,
H(f*)/D <= A(f*) (1 - 1e-3) with A = E_p^{1/p}, it solves the capped
problem and is returned as an energy-bound result with stages = 0.

Barrier rounds: every other capped pair is solved as

    max f(x)  s.t.  f(y) = 0,  A(f) <= 1,  |f_u - f_v| inv_dt <= D on W,

by a log-barrier method (Boyd & Vandenberghe, Convex Optimization, ch. 11)
over a working set W of Holder pairs.  The start is f* scaled to
0.99 / Phi(f*), strictly feasible for every pair, and W is seeded with the
8 largest cap ratios under f* plus (x, y).  Each centering minimizes
F_t(f) = -t f(x) - log(1 - A) - sum_W log((D - z_k)(D + z_k)) by damped
Newton with an Armijo search that keeps the point strictly feasible; the
barrier sits on A = E^{1/p}, not on E, which keeps it well conditioned up
to p = 128.  A round starts at t = m / (1e-3 f(x)), m = 1 + 2|W|, and t
grows 20x per centering until the gap m/t is at most _GAP_RTOL = 1e-10
times f(x).  After every centering one pass over all pairs looks for
violated pairs; if there are any, they join W and the next round starts
from f scaled back to 0.99 of the feasible boundary.  A centering at the
gap target with no violated pair ends the solve.  _MAX_CENTERINGS = 26
caps the centerings of one solve and _MAX_CENTER_STEPS = 4000 the Newton
steps of one centering; running out of either raises NonConverged with the
partial result attached.
``iterations`` counts the screen's Newton steps plus the barrier's.

Kernel: one energy kernel (_cell_energy) serves energy_p, the exact gauge
and both Newton methods.  Each cell's energy density is q_c = F_c^T M_c F_c,
with F_c the cell's node values and M_c = B_c^T G_c^-1 B_c a node-space
form built once per solve (B_c maps node values to the chart gradient).
The barrier Hessian is the energy Hessian scaled by one constant, plus the
rank-one part c gE gE^T of the A-barrier, plus the pair terms added in
place; the rank-one part is never formed but applied by Sherman-Morrison
on a two-column solve.

Preconditioning: each solve internally rescales the instance by
sigma = d_{g0}(x,y) (distances by 1/sigma, metrics by 1/sigma^2) and maps
the value back with the exact homogeneity d -> sigma^t d.  This removes the
overall scale from the optimization, so scaled instances follow identical
iterate paths.

Orientation: the distance is symmetric in its endpoints (f -> -f maps one
orientation's feasible set onto the other's), so every solve runs the
canonical orientation (min(x, y), max(x, y)) and flips the extremal's sign
for swapped queries.  d(x, y) and d(y, x) are therefore bitwise equal.

Accuracy note: every value is attained by its extremal, rescaled to unit
exact gauge over all pairs, so it is a valid lower bound.  Energy-bound
pairs are solved to Newton-decrement accuracy; every other pair stops at
the barrier gap m/t <= _GAP_RTOL f(x) on a working set that no pair
violates, so it lies within about 1e-10 (relative) of the supremum,
whichever constraint binds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import geodesic
from .errors import (
    MeshMismatchError,
    NonConvergedError,
    SameVertexError,
    SolverError,
    ZeroDistancePairError,
)
from .mesh import ensure_function

P_CAP = 128.0


@dataclass
class GaugeParams:
    """Exponents, cap and Holder pair set of one instance.

    Build with :meth:`GaugeParams.build`; ``d0`` is the dense background
    distance matrix and (iu, iv) the constrained node pairs (all pairs by
    default, or those with d0 <= pair_radius plus the solved pair itself).
    """

    mesh: object
    p: float
    D: float
    t: float
    d0: np.ndarray
    iu: np.ndarray
    iv: np.ndarray

    @classmethod
    def build(cls, mesh, dm0, p, D, pair_radius=None):
        n = mesh.dim
        if not p > n:
            raise SolverError(f"need p > n = {n}, got p = {p}")
        if p > P_CAP:
            raise SolverError(f"p is capped at {P_CAP:g}, got {p}")
        if not D > 0:
            raise SolverError(f"need D > 0 (may be inf), got {D}")
        t = (p - n) / p
        d0 = dm0.dist if isinstance(dm0, geodesic.DistanceMatrix) else np.asarray(dm0)
        N = mesh.num_nodes
        if d0.shape != (N, N):
            raise MeshMismatchError("distance matrix does not match mesh node count")
        iu, iv = np.triu_indices(N, k=1)
        if pair_radius is not None:
            d = d0[iu, iv]
            keep = d <= pair_radius
            if d.size and not keep.any():
                raise SolverError(f"pair_radius = {pair_radius} keeps no Holder pair: "
                                  f"the smallest background distance is {d.min():.6g}")
            iu, iv = iu[keep], iv[keep]
        if np.any(d0[iu, iv] <= 0.0):
            raise ZeroDistancePairError("constrained pair with zero background distance")
        return cls(mesh, float(p), float(D), t, d0, iu, iv)


@dataclass
class DistanceResult:
    x: int
    y: int
    p: float
    D: float
    value: float
    extremal: np.ndarray
    active_constraint: str   # energy-bound | holder-bound | both
    iterations: int          # Newton steps of the screen and the barrier
    energy_residual: float   # max(0, E_p(extremal) - 1)
    holder_residual: float   # max(0, H(extremal)/D - 1)
    converged: bool
    stages: int = 0          # barrier centerings (0 for a screened pair)


def _cell_forms(mesh, tensors):
    """Per-cell node-space forms M_c = B_c^T G_c^-1 B_c and sqrt(det G_c).

    G_c = L_c L_c^T is factored by a Cholesky loop vectorized over cells,
    so M_c = Y_c^T Y_c with Y_c = L_c^-1 B_c and sqrt(det G_c) is the
    product of L_c's diagonal.  Forms are stored cell-last, (n+1, n+1, C),
    so the kernel's contractions run along contiguous cell axes.
    """
    n = mesh.dim
    G = np.ascontiguousarray(tensors.transpose(1, 2, 0))      # (n, n, C)
    Y = mesh.gradient_operator().transpose(1, 2, 0).copy()    # (n, n+1, C)
    L = np.zeros_like(G)
    for j in range(n):
        L[j, j] = np.sqrt(G[j, j] - (L[j, :j] ** 2).sum(axis=0))
        for i in range(j + 1, n):
            L[i, j] = (G[i, j] - (L[i, :j] * L[j, :j]).sum(axis=0)) / L[j, j]
        Y[j] = (Y[j] - (L[j, :j, None] * Y[:j]).sum(axis=0)) / L[j, j]
    forms = np.einsum("kic,kjc->ijc", Y, Y)
    return forms, L[range(n), range(n)].prod(axis=0)


def _cell_energy(f, nodes, forms):
    """Per-cell M_c F_c and q_c = F_c^T M_c F_c, with F = f[nodes].

    ``nodes`` (n+1, C) and ``forms`` (n+1, n+1, C) are cell-last.
    """
    F = f[nodes]
    MF = np.einsum("ijc,jc->ic", forms, F)
    return MF, np.einsum("ic,ic->c", F, MF)


def _energy_norm(f, nodes, forms, w, p):
    """A(f) = E_p(f)^{1/p} as a stable weighted p-norm (no overflow at p = 128)."""
    _, q = _cell_energy(f, nodes, forms)
    u = np.sqrt(np.maximum(q, 0.0))
    m = u.max()
    if m == 0.0:
        return 0.0
    return m * float((w * (u / m) ** p).sum()) ** (1.0 / p)


def energy_p(f, g, p):
    """sum_cells (df^T G^-1 df)^{p/2} sqrt(det G) vol_euclid(cell)."""
    if not p > 1:
        raise SolverError(f"need p > 1, got {p}")
    mesh = g.mesh
    f = ensure_function(mesh, f)
    forms, sqrt_dets = _cell_forms(mesh, g.tensors)
    nodes = np.ascontiguousarray(mesh.cells_nodes.T)
    return _energy_norm(f, nodes, forms, sqrt_dets * mesh.volumes, p) ** p


def holder_seminorm(f, params):
    """max over the constrained pairs of |f(u) - f(v)| / d_{g0}(u,v)^t."""
    if params.iu.size == 0:
        raise SolverError("Holder pair set is empty")
    f = ensure_function(params.mesh, f)
    dt = params.d0[params.iu, params.iv] ** params.t
    return float((np.abs(f[params.iu] - f[params.iv]) / dt).max())


class _Gauge:
    """Precomputed, sigma-normalized instance data of one solve."""

    def __init__(self, g, params, x, y):
        mesh = params.mesh
        sigma = float(params.d0[x, y])
        self.sigma = sigma
        self.p = params.p
        self.D = params.D
        self.fixed = np.array([x, y])

        # energy data, rescaled by sigma: G_hat = G / sigma^2
        self.forms, sqrt_dets = _cell_forms(mesh, g.tensors / sigma ** 2)
        self.w = sqrt_dets * mesh.volumes
        self.nodes = np.ascontiguousarray(mesh.cells_nodes.T)

        # Holder data: normalized distances, pair (x, y) always present
        iu, iv = params.iu, params.iv
        is_xy = (iu == min(x, y)) & (iv == max(x, y))
        if not is_xy.any():
            iu = np.append(iu, min(x, y))
            iv = np.append(iv, max(x, y))
            self.xy = iu.size - 1
        else:
            self.xy = int(np.flatnonzero(is_xy)[0])
        self.iu, self.iv = iu, iv
        self.inv_dt = (params.d0[iu, iv] / sigma) ** (-params.t)

    def energy(self, f):
        """A(f) = E_p(f)^{1/p} of the normalized instance."""
        return _energy_norm(f, self.nodes, self.forms, self.w, self.p)

    def ratios(self, f):
        """(f_u - f_v) * inv_dt over all pairs."""
        return (f[self.iu] - f[self.iv]) * self.inv_dt

    def gauge(self, f):
        """Exact Phi(f) = max(A, H/D) and the two terms."""
        A = self.energy(f)
        H = float(np.abs(self.ratios(f)).max())
        cap_term = 0.0 if math.isinf(self.D) else H / self.D
        return max(A, cap_term), A, H


# Newton energy solve: step cap, ridge (relative to the mean Hessian
# diagonal), stop rule lambda^2 <= _NEWTON_RTOL E^ (or _NEWTON_FLOOR E^ on
# a step that needed a halving), and Armijo constants.
_NEWTON_MAX_STEPS = 200
_NEWTON_RIDGE = 1e-12
_NEWTON_RTOL = 1e-14
_NEWTON_FLOOR = 1e-10
_ARMIJO_SLOPE = 0.25
_ARMIJO_HALVINGS = 60


def _energy_hat(f, nodes, forms, w, p, slot=None):
    """E^(f) = sum_c w_c q_c^{p/2}; with ``slot``, also its free gradient and Hessian.

    ``slot`` maps each node to its free index and the pinned nodes to the
    dump index k - 1 = slot.max(); the gradient and the Hessian are
    scattered by bincount into length k and k*k, and the dump entries are
    cut off, so no N x N temporary exists.  With v_c = M_c F_c / sqrt(q_c)
    the cell Hessian is p w_c q_c^{p/2-1} (M_c + (p-2) v_c v_c^T), which
    stays finite where q_c is tiny; cells with q_c = 0 get zero
    coefficients.
    """
    MF, q = _cell_energy(f, nodes, forms)
    E = float((w * np.maximum(q, 0.0) ** (0.5 * p)).sum())
    if slot is None:
        return E
    live = q > 0.0
    q = np.where(live, q, 1.0)
    a = np.where(live, p * w * q ** (0.5 * p - 1.0), 0.0)
    pos = slot[nodes]
    k = int(slot.max()) + 1
    grad = np.bincount(pos.ravel(), weights=(a * MF).ravel(), minlength=k)[:-1]
    v = MF / np.sqrt(q)
    cell_h = a * (forms + (p - 2.0) * v[:, None] * v[None, :])
    flat = pos[:, None] * k + pos[None, :]
    hess = np.bincount(flat.ravel(), weights=cell_h.ravel(), minlength=k * k)
    return E, grad, hess.reshape(k, k)[:-1, :-1]


def _newton_energy(gauge, f):
    """Damped Newton minimization of E^ with the pinned values of f kept.

    Works on the sigma-normalized forms of ``gauge``, scaled by one constant
    so that the largest q_c at the start is 1 (q^{p/2} stays in range up to
    p = 128; the minimizer does not move).  Each step solves the ridged
    Newton system, stops once the decrement lambda^2 = -grad . step is at
    most _NEWTON_RTOL E^, and otherwise backtracks by halving until the
    Armijo test E^(f + t d) <= E^(f) - _ARMIJO_SLOPE t lambda^2 holds.  A
    step that needed a halving at lambda^2 <= _NEWTON_FLOOR E^ is the last:
    there E^ moves by round-off only and the decrement stalls just above
    _NEWTON_RTOL.  Returns (f*, steps, converged); converged is False when
    the step cap or the line search ran out first.
    """
    free = np.ones(f.size, dtype=bool)
    free[gauge.fixed] = False
    slot = np.full(f.size, f.size - 2)
    slot[free] = np.arange(f.size - 2)
    _, q = _cell_energy(f, gauge.nodes, gauge.forms)
    forms = gauge.forms / q.max()
    args = (gauge.nodes, forms, gauge.w, gauge.p)
    diag = np.diag_indices(f.size - 2)
    f = f.copy()
    for step in range(_NEWTON_MAX_STEPS):
        E, grad, hess = _energy_hat(f, *args, slot)
        hess[diag] += _NEWTON_RIDGE * np.trace(hess) / max(grad.size, 1)
        d = np.linalg.solve(hess, -grad)
        lam2 = -float(grad @ d)
        if lam2 <= _NEWTON_RTOL * E:
            return f, step, True
        t = 1.0
        for _ in range(_ARMIJO_HALVINGS):
            trial = f.copy()
            trial[free] += t * d
            if _energy_hat(trial, *args) <= E - _ARMIJO_SLOPE * t * lam2:
                break
            t *= 0.5
        else:
            return f, step, False
        f = trial
        if t < 1.0 and lam2 <= _NEWTON_FLOOR * E:
            return f, step + 1, True
    return f, _NEWTON_MAX_STEPS, False


# Barrier rounds: t grows _BARRIER_GROWTH-fold per centering and restarts
# at the relative gap _BARRIER_GAP0 each round until the gap reaches
# _GAP_RTOL, W is seeded with the _SEED_PAIRS largest cap ratios, and a
# round starts at _INTERIOR times the feasible boundary.  A solve gets
# _MAX_CENTERINGS centerings of at most _MAX_CENTER_STEPS Newton steps each.
# A centering ends once lambda^2 <= _CENTER_TOL, or once lambda^2 <=
# _CENTER_FLOOR stops falling (less than halved by a step) or needs a
# halving: slacks near 1e-12 are resolved to a few digits only, which puts
# a round-off floor under lambda^2 and under the Armijo test.
_GAP_RTOL = 1e-10
_MAX_CENTERINGS = 26
_MAX_CENTER_STEPS = 4000
_BARRIER_GROWTH = 20.0
_BARRIER_GAP0 = 1e-3
_SEED_PAIRS = 8
_INTERIOR = 0.99
_CENTER_TOL = 1e-6
_CENTER_FLOOR = 1e-4


class _WorkingSet:
    """The Holder pairs W of one barrier round and their free slots."""

    def __init__(self, gauge, idx, slot):
        self.m = 1 + 2 * idx.size             # barrier terms: A and two per pair
        self.u, self.v = gauge.iu[idx], gauge.iv[idx]
        self.c = gauge.inv_dt[idx]
        su, sv = slot[self.u], slot[self.v]
        self.ends = np.concatenate([su, sv])
        # scatter pattern of the pair Hessian, dump row and column dropped
        rows = np.concatenate([su, sv, su, sv])
        cols = np.concatenate([su, sv, sv, su])
        keep = np.maximum(rows, cols) < slot.max()
        self.rows, self.cols = rows[keep], cols[keep]
        self.src = np.tile(np.arange(idx.size), 4)[keep]
        self.sign = np.repeat([1.0, 1.0, -1.0, -1.0], idx.size)[keep]

    def ratios(self, f):
        return (f[self.u] - f[self.v]) * self.c


def _barrier(gauge, f, t, W, slot):
    """F_t(f), its free gradient, and its free Hessian as (H0, c2, gE).

    F_t(f) = -t f(x) - log(1 - A) - sum_W log((D - z_k)(D + z_k)), and the
    Hessian is H0 + c2 gE gE^T.  A and E^ are evaluated at f / rho with
    rho^2 = max_c q_c, where E^ is of order one: A is 1-homogeneous, so
    dA/df = (E^{1/p-1}/p) gE there and d^2A/df^2 picks up 1/rho.  H0 gets
    the energy solve's ridge, 1e-12 times the mean diagonal of its energy
    part (the pair terms, up to 1/slack^2, would swamp the energy
    curvature), and then the pair terms, both in place.
    """
    D, p = gauge.D, gauge.p
    _, q = _cell_energy(f, gauge.nodes, gauge.forms)
    rho = math.sqrt(q.max())
    E, gE, H0 = _energy_hat(f / rho, gauge.nodes, gauge.forms, gauge.w, p, slot)
    s = 1.0 - rho * E ** (1.0 / p)
    dA = E ** (1.0 / p - 1.0) / p
    H0 *= dA / (rho * s)
    H0[np.diag_indices(gE.size)] += _NEWTON_RIDGE * np.trace(H0) / gE.size
    c2 = dA * ((1.0 / p - 1.0) / (E * rho * s) + dA / s ** 2)
    z = W.ratios(f)
    lo, hi = D - z, D + z
    gz = (1.0 / lo - 1.0 / hi) * W.c
    hz = (1.0 / lo ** 2 + 1.0 / hi ** 2) * W.c ** 2
    k = gE.size + 1
    grad = (dA / s) * gE
    grad += np.bincount(W.ends, weights=np.concatenate([gz, -gz]), minlength=k)[:-1]
    x = gauge.fixed[0]
    grad[slot[x]] -= t
    np.add.at(H0, (W.rows, W.cols), W.sign * hz[W.src])
    F = -t * f[x] - math.log(s) - float(np.log(lo * hi).sum())
    return F, grad, H0, c2, gE


def _center(gauge, f, t, W, slot):
    """Damped Newton minimization of F_t from a strictly feasible f.

    The step solves (H0 + c2 gE gE^T) d = -grad by Sherman-Morrison on one
    two-column solve of H0.  The Armijo test is written as the
    difference F_t(f + s d) - F_t(f), term by term, and a trial must stay
    strictly feasible on W.  Returns (f, steps, centered).
    """
    D = gauge.D
    x = gauge.fixed[0]
    A, z = gauge.energy(f), W.ratios(f)
    lam2_prev = math.inf
    for step in range(_MAX_CENTER_STEPS):
        _, grad, H0, c2, gE = _barrier(gauge, f, t, W, slot)
        a, b = np.linalg.solve(H0, np.column_stack((-grad, gE))).T
        d = a - (c2 * (gE @ a) / (1.0 + c2 * (gE @ b))) * b
        lam2 = -float(grad @ d)
        if lam2 <= _CENTER_TOL or _CENTER_FLOOR >= lam2 > 0.5 * lam2_prev:
            return f, step, True
        lam2_prev = lam2
        d = np.append(d, 0.0)[slot]           # node order; y, in the dump slot, stays 0
        dz = W.ratios(d)
        s = 1.0
        for _ in range(_ARMIJO_HALVINGS):
            trial = f + s * d
            z1 = W.ratios(trial)
            A1 = gauge.energy(trial) if np.abs(z1).max() < D else math.inf
            if A1 < 1.0:
                dF = (-t * s * d[x] - math.log1p((A - A1) / (1.0 - A))
                      - float(np.log1p(-s * dz / (D - z)).sum())
                      - float(np.log1p(s * dz / (D + z)).sum()))
                if dF <= -_ARMIJO_SLOPE * s * lam2:
                    break
            s *= 0.5
        else:
            return f, step, lam2 <= _CENTER_FLOOR
        f, A, z = trial, A1, z1
        if s < 1.0 and lam2 <= _CENTER_FLOOR:
            return f, step + 1, True
    return f, _MAX_CENTER_STEPS, False


def _barrier_rounds(gauge, f):
    """Barrier rounds from the screen's extremal f (f(x) = 1, f(y) = 0).

    Returns (f, Newton steps, centerings, converged); f is strictly
    feasible on the last working set.
    """
    x, y = gauge.fixed
    slot = np.arange(f.size)
    slot[y:] -= 1
    slot[y] = f.size - 1                      # y is the dump slot
    seed = np.argsort(-np.abs(gauge.ratios(f)), kind="stable")[:_SEED_PAIRS]
    idx = np.union1d(seed, [gauge.xy])
    f = (_INTERIOR / gauge.gauge(f)[0]) * f
    steps = centerings = 0
    while True:
        W = _WorkingSet(gauge, idx, slot)
        t = W.m / (_BARRIER_GAP0 * f[x])
        while True:
            if centerings == _MAX_CENTERINGS:
                return f, steps, centerings, False
            centerings += 1
            f, used, centered = _center(gauge, f, t, W, slot)
            steps += used
            if not centered:
                return f, steps, centerings, False
            violated = np.flatnonzero(np.abs(gauge.ratios(f)) > gauge.D)
            if violated.size:
                break
            if W.m / t <= _GAP_RTOL * f[x]:
                return f, steps, centerings, True
            t = min(_BARRIER_GROWTH * t, W.m / (_GAP_RTOL * f[x]))
        idx = np.union1d(idx, violated)
        f = (_INTERIOR / gauge.gauge(f)[0]) * f


def _swap_orientation(result, x, y):
    return replace(result, x=x, y=y, extremal=-result.extremal)


def _solve(x, y, g, params):
    """Canonical-orientation front end: d is symmetric in (x, y)."""
    if x <= y:
        return _solve_oriented(x, y, g, params)
    try:
        result = _solve_oriented(y, x, g, params)
    except NonConvergedError as exc:
        exc.result = _swap_orientation(exc.result, x, y)
        raise
    return _swap_orientation(result, x, y)


def _solve_oriented(x, y, g, params):
    mesh = params.mesh
    N = mesh.num_nodes
    if not (0 <= x < N and 0 <= y < N):
        raise SolverError(f"node index out of range: {x}, {y}")
    if x == y:
        raise SameVertexError(f"source and sink coincide at node {x}")
    if g.mesh is not mesh:
        raise MeshMismatchError("metric and params live on different meshes")
    if params.d0[x, y] <= 0.0:
        raise ZeroDistancePairError(f"d_g0({x},{y}) = 0")

    gauge = _Gauge(g, params, x, y)

    # init: background-distance profile, Holder-feasible by the snowflake bound
    prof = (gauge.sigma ** -1 * params.d0[y, :]) ** params.t
    f0 = np.clip(prof, 0.0, 1.0)
    f0[y], f0[x] = 0.0, 1.0

    s, _, _ = gauge.gauge(f0)
    if not (np.isfinite(s) and s > 0.0):
        raise SolverError(f"normalized start has invalid gauge {s!r}")

    f, steps, newton_ok = _newton_energy(gauge, f0)
    if math.isinf(params.D) or (
            newton_ok and _active(*gauge.gauge(f)[1:], params.D) == "energy-bound"):
        result = _result(gauge, g, params, x, y, f, steps, newton_ok, 0)
        if not newton_ok:
            raise NonConvergedError(
                f"Newton energy solve stopped after {steps} steps without "
                f"meeting its decrement test: last value {result.value:.6g}",
                result=result,
            )
        return result

    f, used, stages, converged = _barrier_rounds(gauge, f)
    result = _result(gauge, g, params, x, y, f, steps + used, converged, stages)
    if not converged:
        raise NonConvergedError(
            f"barrier stopped after {stages} centerings without reaching its "
            f"gap target: last value {result.value:.6g}",
            result=result,
        )
    return result


def _active(A, H, D):
    """Which gauge term binds: the two tie within 1e-3 relative as "both"."""
    cap_term = 0.0 if math.isinf(D) else H / D
    if abs(A - cap_term) <= 1e-3 * max(A, cap_term):
        return "both"
    return "energy-bound" if A > cap_term else "holder-bound"


def _result(gauge, g, params, x, y, f, iterations, converged, stages):
    """The solve's answer from candidate f, rescaled to unit exact gauge."""
    phi, A, H = gauge.gauge(f)
    sig_t = gauge.sigma ** params.t
    value = sig_t * ((f[x] - f[y]) / phi)
    extremal = (sig_t / phi) * f
    e_res = max(0.0, energy_p(extremal, g, params.p) ** (1.0 / params.p) - 1.0)
    if math.isinf(params.D):
        h_res = 0.0
    else:
        h_res = max(0.0, holder_seminorm(extremal, params) / params.D - 1.0)
    return DistanceResult(
        x=x, y=y, p=params.p, D=params.D,
        value=value, extremal=extremal, active_constraint=_active(A, H, params.D),
        iterations=iterations, energy_residual=e_res, holder_residual=h_res,
        converged=converged, stages=stages,
    )


def solve_dp(x, y, g, g0, params):
    """Capped distance between nodes x and y (see module docstring).

    g0 enters through the background distances already precomputed in
    ``params``; it is accepted here to assert the fields share a mesh.
    """
    if g0 is not None and g0.mesh is not params.mesh:
        raise MeshMismatchError("g0 lives on a different mesh than params")
    if math.isinf(params.D):
        raise SolverError("params.D is inf; use solve_dp_unmodified")
    return _solve(x, y, g, params)


def solve_dp_unmodified(x, y, g, params):
    """Uncapped p-energy distance (the D = +inf case of solve_dp)."""
    return _solve(x, y, g, replace(params, D=math.inf))


@dataclass
class PairOutcome:
    x: int
    y: int
    result: DistanceResult | None = None
    error: str | None = None


def distance_matrix(pairs, g, g0, params):
    """One solve per pair, in order; per-pair failures recorded, never aborting the batch."""
    outcomes = []
    for x, y in pairs:
        try:
            if math.isinf(params.D):
                result = solve_dp_unmodified(x, y, g, params)
            else:
                result = solve_dp(x, y, g, g0, params)
            outcomes.append(PairOutcome(x, y, result=result))
        except SameVertexError:
            outcomes.append(PairOutcome(x, y, error="SameVertex"))
        except NonConvergedError as exc:
            outcomes.append(PairOutcome(x, y, result=exc.result, error="NonConverged"))
        except (SolverError, MeshMismatchError) as exc:
            outcomes.append(PairOutcome(x, y, error=f"{type(exc).__name__}: {exc}"))
    return outcomes
