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

Algorithm, in two parts.

Newton energy solve: every solve first minimizes the uncapped energy
E^(f) = sum_c w_c q_c^{p/2} over the free nodes by a damped Newton method
(_newton_energy).  The Hessian p sum_c w_c [q^{p/2-1} M_c + (p-2)
q^{p/2-2} (M_c F_c)(M_c F_c)^T] is scattered by one bincount into the free
block, with the pinned nodes sent to a dump row and column; a ridge of
1e-12 tr/N_free is added, the step comes from np.linalg.solve, an Armijo
backtracking search damps it, and the method stops when the Newton
decrement lambda^2 falls to 1e-14 E^.  Cells with q_c = 0 get zero
coefficients (the energy is flat there for p > 2 and not twice
differentiable for p < 2).  solve_dp_unmodified returns this minimizer.

Energy-bound screen: the capped feasible set is a subset of the uncapped
one, so if the uncapped minimizer f* already satisfies the cap with room,
H(f*)/D <= A(f*) (1 - 1e-3) with A = E_p^{1/p}, it solves the capped
problem and is returned as an energy-bound result with stages = 0 and
beta_final = 0.

FISTA fallback: otherwise f* is discarded and both maxima of the gauge are
smoothed by log-sum-exp of sharpness beta (nested: pair ratios inside H,
then the two gauge terms), minimized by an accelerated first-order method
(Nesterov momentum, adaptive restart, backtracking line search) from the
same start as the Newton solve, with beta on a geometric continuation
schedule (10, 40, 160, 640, ...) and warm starts.  Continuation stops when
the reported value 1/Phi changes by less than ``stage_rtol`` relative
between consecutive stages; exhausting the stage budget raises
NonConverged with the partial result attached.  A stage that ends because
60 backtracking steps in a row found no sufficient decrease is counted in
``DistanceResult.backtrack_stalls``.  ``iterations`` counts the Newton
steps plus the FISTA iterations.

Kernel: one energy kernel (_cell_energy) serves energy_p, the exact gauge,
the smoothed objective and the Newton solve.  Each cell's energy density
is q_c = F_c^T M_c F_c, with F_c the cell's node values and
M_c = B_c^T G_c^-1 B_c a node-space form built once per solve (B_c maps
node values to the chart gradient).  The value-only evaluations used by
the line search skip the gradient, and the energy gradient M_c F_c is
scattered with one bincount.  In the Holder term
z_k = (f(u_k) - f(v_k)) / (s d_k^t); its gradient carries that 1/s
(d phi / d f(u) picks up inv_dt / s per pair), and it is scattered by
segmented sums (add.reduceat) over the pairs sorted by u and, through a
fixed permutation, by v.  The softmax exponents are clamped at EXP_FLOOR
= -600 before exp: numpy's exp is about 20x slower on lanes that
underflow, and since the largest term is exactly 1 the clamp moves the
sum T by less than one ulp.  Each solve owns its work buffers, so an
evaluation allocates nothing of pair-count size.

Preconditioning: each solve internally rescales the instance by
sigma = d_{g0}(x,y) (distances by 1/sigma, metrics by 1/sigma^2) and maps
the value back with the exact homogeneity d -> sigma^t d.  This removes the
overall scale from the optimization, so scaled instances follow identical
iterate paths.

Orientation: the distance is symmetric in its endpoints (f -> -f maps one
orientation's feasible set onto the other's), so every solve runs the
canonical orientation (min(x, y), max(x, y)) and flips the extremal's sign
for swapped queries.  d(x, y) and d(y, x) are therefore bitwise equal.

Accuracy note: energy-bound pairs are solved to Newton-decrement accuracy.
When the two gauge terms tie at the optimum (the cap is exactly active),
the smoothed objective develops a nearly flat valley along their common
level set whose transverse curvature grows with beta.  The continuation
can then stall a few parts in 1e3 short of the optimum: the reported value
is still attained by a feasible candidate (the extremal is rescaled to unit
exact gauge), i.e. it remains a valid lower bound, but in this regime its
last digits understate the supremum.  Away from the tie (either constraint
strictly active) the solver reaches stage_rtol accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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
    """Exponents, cap, Holder pair set, and solver knobs for one instance.

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
    pair_radius: float | None = None
    beta0: float = 10.0
    beta_growth: float = 4.0
    stage_rtol: float = 1e-5
    max_stages: int = 26
    max_iters_per_stage: int = 4000
    inner_rtol: float = 1e-11

    @classmethod
    def build(cls, mesh, dm0, p, D, pair_radius=None, **knobs):
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
            keep = d0[iu, iv] <= pair_radius
            iu, iv = iu[keep], iv[keep]
        if np.any(d0[iu, iv] <= 0.0):
            raise ZeroDistancePairError("constrained pair with zero background distance")
        return cls(mesh, float(p), float(D), t, d0, iu, iv, pair_radius, **knobs)


@dataclass
class DistanceResult:
    x: int
    y: int
    p: float
    D: float
    value: float
    extremal: np.ndarray
    active_constraint: str   # energy-bound | holder-bound | both
    iterations: int          # Newton steps plus FISTA iterations
    gauge_value: float       # Phi of the unit-normalized minimizer = 1/value
    energy_residual: float   # max(0, E_p(extremal) - 1)
    holder_residual: float   # max(0, H(extremal)/D - 1)
    converged: bool
    stages: int = 0
    beta_final: float = 0.0
    pair_radius: float | None = None
    backtrack_stalls: int = 0  # stages ended by 60 failed backtracking steps


# Exponent floor for the Holder softmax.  numpy's exp takes a slow path
# (about 20x) on every lane whose result underflows; clamping the arguments
# at -600 keeps every lane on the fast path and every later product normal.
# The largest term is exactly exp(0) = 1, so the sum of the terms moves by
# at most P e^-600, far below one ulp, and a clamped term enters the
# gradient with weight e^-600 in place of a smaller one.
EXP_FLOOR = -600.0


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


def _energy_norm(f, nodes, forms, w, p, need_grad=False):
    """A(f) = E_p(f)^{1/p} as a stable weighted p-norm; gradient on request.

    The gradient dA/df = A^{1-p} sum_c w_c q_c^{(p-2)/2} M_c F_c is
    scattered onto the nodes with one bincount.
    """
    MF, q = _cell_energy(f, nodes, forms)
    u = np.sqrt(np.maximum(q, 0.0))
    m = u.max()
    if m == 0.0:
        return (0.0, np.zeros_like(f)) if need_grad else 0.0
    ratio = u / m
    S = float((w * ratio ** p).sum())
    A = m * S ** (1.0 / p)
    if not need_grad:
        return A
    coef = w * ratio ** (p - 2.0) * (S ** ((1.0 - p) / p) / m)
    MF *= coef
    return A, np.bincount(nodes.ravel(), weights=MF.ravel(), minlength=f.size)


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
    """Precomputed, sigma-normalized instance data + smoothed objective.

    Each instance owns two work buffers of length P (the pair count), so
    a call allocates nothing P-sized; an instance therefore serves exactly
    one solve and is never shared between solves.
    """

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

        # Holder data: normalized distances, pair (x,y) always present,
        # pairs sorted by iu (the default triu order already is: no copy)
        iu, iv = params.iu, params.iv
        have_xy = np.any((iu == min(x, y)) & (iv == max(x, y)))
        if not have_xy:
            iu = np.append(iu, min(x, y))
            iv = np.append(iv, max(x, y))
        if np.any(iu[1:] < iu[:-1]):
            order = np.argsort(iu, kind="stable")
            iu, iv = iu[order], iv[order]
        self.iu, self.iv = iu, iv
        self.inv_dt = (params.d0[iu, iv] / sigma) ** (-params.t)

        # segmented sums replace the two scatters: pairs grouped by iu as
        # stored, and by iv through a stable permutation
        self.u_nodes, self.u_starts = np.unique(iu, return_index=True)
        self.v_perm = np.argsort(iv, kind="stable")
        self.v_nodes, self.v_starts = np.unique(iv[self.v_perm], return_index=True)
        self._z, self._ep = np.empty((2, iu.size))

    # -- exact pieces ----------------------------------------------------

    def energy(self, f, need_grad=False):
        """A(f) = E_p(f)^{1/p} of the normalized instance (and gradient)."""
        return _energy_norm(f, self.nodes, self.forms, self.w, self.p, need_grad)

    def _ratios(self, f):
        """(f_u - f_v) * inv_dt over the pairs, in the z work buffer."""
        z = self._z
        # indices are in range by construction; "clip" skips the bounds check
        np.take(f, self.iu, out=z, mode="clip")
        np.take(f, self.iv, out=self._ep, mode="clip")
        np.subtract(z, self._ep, out=z)
        np.multiply(z, self.inv_dt, out=z)
        return z

    def holder(self, f):
        """Exact seminorm of the normalized instance."""
        z = self._ratios(f)
        return float(max(z.max(), -z.min()))

    def gauge(self, f):
        """Exact Phi(f) = max(A, H/D) and the two terms."""
        A = self.energy(f)
        H = self.holder(f)
        cap_term = 0.0 if math.isinf(self.D) else H / self.D
        return max(A, cap_term), A, H

    # -- smoothed objective ----------------------------------------------

    def smoothed(self, f, beta, s, need_grad=True):
        """phi_beta(f)/s with nested log-sum-exp smoothing, and gradient."""
        out = self.energy(f, need_grad)
        A, gA = out if need_grad else (out, None)
        a1 = A / s
        if math.isinf(self.D):
            if not need_grad:
                return a1
            gA /= s
            gA[self.fixed] = 0.0
            return a1, gA

        z = self._ratios(f)
        np.divide(z, s, out=z)
        Mz = max(z.max(), -z.min())
        ep, en = self._ep, z                   # en overwrites z once ep is formed
        np.subtract(z, Mz, out=ep)             # beta (z - Mz)
        np.multiply(ep, beta, out=ep)
        np.add(z, Mz, out=en)                  # beta (-z - Mz), negation exact
        np.multiply(en, -beta, out=en)
        if beta * Mz > -0.5 * EXP_FLOOR:       # else all exponents >= -2 beta Mz >= floor
            np.maximum(ep, EXP_FLOOR, out=ep)
            np.maximum(en, EXP_FLOOR, out=en)
        np.exp(ep, out=ep)
        np.exp(en, out=en)
        T = ep.sum() + en.sum()
        h = Mz + math.log(T) / beta          # smoothed H/s
        a2 = h / self.D

        Mo = max(a1, a2)
        e1 = math.exp(beta * (a1 - Mo))
        e2 = math.exp(beta * (a2 - Mo))
        phi = Mo + math.log(e1 + e2) / beta
        if not need_grad:
            return phi

        th1 = e1 / (e1 + e2)
        th2 = 1.0 - th1
        grad = th1 * (gA / s)
        # d(h)/d z_k = (ep_k - en_k) / T and d z_k / d f_u = inv_dt_k / s
        coef = np.subtract(ep, en, out=ep)
        np.multiply(coef, self.inv_dt, out=coef)
        np.multiply(coef, th2 / (self.D * T * s), out=coef)
        grad[self.u_nodes] += np.add.reduceat(coef, self.u_starts)
        np.take(coef, self.v_perm, out=en, mode="clip")
        grad[self.v_nodes] -= np.add.reduceat(en, self.v_starts)
        grad[self.fixed] = 0.0
        return phi, grad


def _probe_L(gauge, f, beta, s, L):
    """Secant estimate of local curvature, re-anchoring L at stage entry.

    While polishing at machine precision near a stage minimizer, the
    sufficient-decrease test fails on rounding noise and backtracking
    ratchets L far above the true Lipschitz constant.  Carrying that into
    the next stage (whose objective has changed) would freeze the iterate;
    one extra gradient evaluation per stage buys a sane restart.
    """
    _, g0 = gauge.smoothed(f, beta, s)
    gn = float(np.linalg.norm(g0))
    if gn == 0.0 or not np.isfinite(gn):
        return L
    eps = 1e-6 * (1.0 + float(np.abs(f).max()))
    _, g1 = gauge.smoothed(f - (eps / gn) * g0, beta, s)
    est = float(np.linalg.norm(g1 - g0)) / eps
    if not np.isfinite(est) or est <= 0.0:
        return L
    return max(2.0 * est, 1e-6)


def _fista_stage(gauge, f, beta, s, L, max_iters, inner_rtol):
    """Minimize the beta-smoothed gauge from warm start f.

    Returns (f, L, iters, stalled); ``stalled`` is True when the stage ended
    because 60 backtracking steps in a row failed to find sufficient decrease.
    """
    x_prev = f.copy()                 # last accepted iterate
    phi_x = gauge.smoothed(x_prev, beta, s, need_grad=False)
    fv = x_prev.copy()                # momentum point
    tk = 1.0
    flat = 0
    iters = 0
    stalled = False
    for _ in range(max_iters):
        iters += 1
        phi_v, grad_v = gauge.smoothed(fv, beta, s)
        g2 = float(grad_v @ grad_v)
        if g2 == 0.0:
            break
        accepted = False
        for _bt in range(60):
            fn = fv - grad_v / L
            phi_n = gauge.smoothed(fn, beta, s, need_grad=False)
            if phi_n <= phi_v - 0.5 * g2 / L + 1e-18:
                accepted = True
                break
            L *= 2.0
        if not accepted:
            stalled = True
            break
        if phi_n > phi_x:
            # momentum overshot: restart from the last accepted iterate
            fv = x_prev.copy()
            tk = 1.0
            continue
        small = abs(phi_x - phi_n) <= inner_rtol * max(1.0, abs(phi_n))
        tk1 = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
        fv = fn + ((tk - 1.0) / tk1) * (fn - x_prev)
        x_prev = fn
        phi_x = phi_n
        tk = tk1
        L *= 0.97  # gentle step growth; backtracking re-tightens as needed
        if small:
            flat += 1
            if flat >= 4:
                break
        else:
            flat = 0
    return x_prev, L, iters, stalled


# Newton energy solve: step cap, ridge (relative to the mean Hessian
# diagonal), stop rule lambda^2 <= _NEWTON_RTOL E^, and Armijo constants.
_NEWTON_MAX_STEPS = 200
_NEWTON_RIDGE = 1e-12
_NEWTON_RTOL = 1e-14
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
    Armijo test E^(f + t d) <= E^(f) - _ARMIJO_SLOPE t lambda^2 holds.
    Returns (f*, steps, converged); converged is False when the step cap
    or the line search ran out first.
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
    return f, _NEWTON_MAX_STEPS, False


def _swap_orientation(result, x, y):
    return replace(result, x=x, y=y, extremal=-result.extremal)


def _solve(x, y, g, params, modified):
    """Canonical-orientation front end: d is symmetric in (x, y)."""
    if x <= y:
        return _solve_oriented(x, y, g, params, modified)
    try:
        result = _solve_oriented(y, x, g, params, modified)
    except NonConvergedError as exc:
        exc.result = _swap_orientation(exc.result, x, y)
        raise
    return _swap_orientation(result, x, y)


def _solve_oriented(x, y, g, params, modified):
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

    D = params.D if modified else math.inf
    work = replace(params, D=D) if D != params.D else params
    gauge = _Gauge(g, work, x, y)

    # init: background-distance profile, Holder-feasible by the snowflake bound
    prof = (gauge.sigma ** -1 * params.d0[y, :]) ** params.t
    f0 = np.clip(prof, 0.0, 1.0)
    f0[y], f0[x] = 0.0, 1.0

    s, _, _ = gauge.gauge(f0)
    if not (np.isfinite(s) and s > 0.0):
        raise SolverError(f"normalized start has invalid gauge {s!r}")

    f, steps, newton_ok = _newton_energy(gauge, f0)
    if not modified or (newton_ok and _active(*gauge.gauge(f)[1:], D) == "energy-bound"):
        result = _result(gauge, g, work, x, y, f, steps, newton_ok, 0, 0.0, 0)
        if not newton_ok:
            raise NonConvergedError(
                f"Newton energy solve stopped after {steps} steps without "
                f"meeting its decrement test: last value {result.value:.6g}",
                result=result,
            )
        return result

    f = f0
    beta = params.beta0
    L = 1.0
    total_iters = steps
    prev_value = None
    converged = False
    stages = 0
    stalls = 0
    for stage in range(params.max_stages):
        if stage:
            beta *= params.beta_growth
        stages = stage + 1
        L = _probe_L(gauge, f, beta, s, L)
        f, L, used, stalled = _fista_stage(
            gauge, f, beta, s, L, params.max_iters_per_stage, params.inner_rtol
        )
        total_iters += used
        stalls += stalled
        phi, _, _ = gauge.gauge(f)
        value_hat = 1.0 / phi
        if prev_value is not None and abs(value_hat - prev_value) <= params.stage_rtol * abs(value_hat):
            converged = True
            break
        prev_value = value_hat

    result = _result(gauge, g, work, x, y, f, total_iters, converged, stages, beta, stalls)
    if not converged:
        raise NonConvergedError(
            f"continuation exhausted {stages} stages (beta {beta:g}) without "
            f"stabilizing: last value {result.value:.6g}",
            result=result,
        )
    return result


def _active(A, H, D):
    """Which gauge term binds: the two tie within 1e-3 relative as "both"."""
    cap_term = 0.0 if math.isinf(D) else H / D
    if abs(A - cap_term) <= 1e-3 * max(A, cap_term):
        return "both"
    return "energy-bound" if A > cap_term else "holder-bound"


def _result(gauge, g, work, x, y, f, iterations, converged, stages, beta, stalls):
    """The solve's answer from minimizer f, rescaled to unit exact gauge."""
    phi, A, H = gauge.gauge(f)
    sig_t = gauge.sigma ** work.t
    value = sig_t * (1.0 / phi)
    extremal = (sig_t / phi) * f
    e_res = max(0.0, energy_p(extremal, g, work.p) ** (1.0 / work.p) - 1.0)
    if math.isinf(work.D):
        h_res = 0.0
    else:
        h_res = max(0.0, holder_seminorm(extremal, work) / work.D - 1.0)
    return DistanceResult(
        x=x, y=y, p=work.p, D=work.D,
        value=value, extremal=extremal, active_constraint=_active(A, H, work.D),
        iterations=iterations, gauge_value=1.0 / value,
        energy_residual=e_res, holder_residual=h_res,
        converged=converged, stages=stages, beta_final=beta,
        pair_radius=work.pair_radius, backtrack_stalls=stalls,
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
    return _solve(x, y, g, params, modified=True)


def solve_dp_unmodified(x, y, g, params):
    """Uncapped p-energy distance (the D = +inf case of solve_dp)."""
    return _solve(x, y, g, params, modified=False)


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
