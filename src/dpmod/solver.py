"""Variational solver for the Holder-capped p-energy distance.

The quantity computed between nodes x and y is

    sup { |f(x) - f(y)| :  E_p(f) <= 1,  H(f) <= D }

over piecewise-linear f, where E_p(f) = sum_cells (df^T G^-1 df)^{p/2}
sqrt(det G) vol is the p-energy under the metric g and H(f) is the Holder
seminorm max_{(u,v)} |f(u) - f(v)| / d_{g0}(u,v)^t over all node pairs, with
t = (p - n)/p and d_{g0} the background graph metric.  The cap D lies in
(0, +inf]; D = +inf drops the cap (plain p-energy distance).

Reformulation: both constraints are 1-homogeneous, so with the gauge
Phi(f) = max(E_p(f)^{1/p}, H(f)/D) the distance equals
1 / min{ Phi(f) : f(x) - f(y) = 1 }, and the minimizer rescaled to Phi = 1
is the extremal function.  Translation invariance lets us pin f(y) = 0,
f(x) = 1 and minimize over the remaining node values.

Algorithm: one Newton solve and two screens, then barrier rounds where
neither screen settles the pair.  Every Newton step of either method builds
one system, a free gradient and a Hessian operator, and solves it dense
below _CG_MIN_FREE = 200 free nodes and by matrix-free preconditioned CG
from there on (see Step solver).

Newton energy solve: every solve first minimizes the uncapped energy
E^(f) = sum_c w_c q_c^{p/2} over the free nodes by a damped Newton method
(_newton_energy).  The Hessian is p sum_c w_c [q^{p/2-1} M_c + (p-2)
q^{p/2-2} (M_c F_c)(M_c F_c)^T] over the free nodes, with a ridge of
1e-12 tr/N_free; the step solves it (see Step solver), an Armijo
backtracking search damps it, and the method stops when the Newton
decrement lambda^2 falls to 1e-14 E^, or to 1e-10 E^ on a step that
needed a halving (there the line search is resolving round-off), or at
once when the free gradient is zero.  Cells with q_c = 0 get zero
coefficients (the energy is flat there for p > 2 and not twice
differentiable for p < 2).

Energy-bound screen: the capped feasible set is a subset of the uncapped
one, so if the uncapped minimizer f* already satisfies the cap with room,
H(f*)/D <= A(f*) (1 - 1e-3) with A = E_p^{1/p}, it solves the capped
problem and is returned as an energy-bound result with stages = 0.  At
D = +inf the cap term H/D is 0 and f* is always the answer.

Cap-bound screen: the pair (x, y) is itself constrained, so D (in the
normalized units, where d_{g0}(x, y) = 1) bounds the value from above.  With
dx = d_{g0}(x, .)^t and dy = d_{g0}(y, .)^t normalized, three candidates
reach it, each with f(x) - f(y) = D: the envelopes max(0, D - D dx) and
min(D, D dy), which are D-Holder because d_{g0}^t is a metric, and D f*
clipped between them.  The one of smallest exact gauge (ties in that order)
is returned with stages = 0 if its Phi is at most 1 + _GAP_RTOL, whether or
not the Newton solve converged: Phi is exact and the envelopes do not use
f*.  Its iterations are the Newton steps alone.

Barrier rounds: every other capped pair is solved as

    max f(x)  s.t.  f(y) = 0,  A(f) <= 1,  |f_u - f_v| inv_dt <= D on W,

by a log-barrier method (Boyd & Vandenberghe, Convex Optimization, ch. 11)
over a working set W of Holder pairs, seeded with the 8 largest cap ratios
of the screen's pair pass at f*, plus (x, y).  Each centering minimizes
F_t(f) = -t f(x) - log(1 - A) - sum_W log((D - z_k)(D + z_k)) by damped
Newton with an Armijo search that keeps the point strictly feasible; the
barrier sits on A = E^{1/p}, not on E, which keeps it well conditioned up
to p = 128.  Every round starts in one place: f is scaled to 0.99 / Phi(f),
strictly feasible for every pair, and t = m / (1e-3 f(x)), m = 1 + 2|W|; t
grows 20x per centering until the gap m/t is at most _GAP_RTOL = 1e-10
times f(x).  A round's first centering starts from the cell pass and W
ratios the round makes at its start; a continuation centering starts from
the point and the pass that the centering before it ended with.  After
each centering one pass over all pairs looks for violated pairs; any join
W and start the next round, and a centering at the gap target with none
ends the solve.  That pass and the centering's last A give Phi(f), for a
new round or the result.  _MAX_CENTERINGS = 26 caps the centerings of one
solve and _MAX_CENTER_STEPS = 4000 the Newton steps of one centering;
running out of either raises NonConverged with the partial result
attached.  ``iterations`` counts the screen's Newton steps plus the
barrier's.

Kernel: one energy kernel (_cell_energy) serves energy_p, the exact gauge
and both Newton methods.  Each cell's energy density is q_c = F_c^T M_c F_c,
with F_c the cell's node values and M_c = B_c^T G_c^-1 B_c a node-space
form built once per solve (B_c maps node values to the chart gradient).
A has one formula, m E^(f/m)^{1/p} with m^2 = max_c q_c (_norm_terms), for
the gauge, a centering's line search and its barrier system.  A Newton
method makes one cell pass per point, at its start and at each line-search
trial (a centering's only inside W's bounds; a continuation centering's
start is its predecessor's last point, whose pass it is handed), and a
step takes its gradient and Hessian from its point's pass: per-cell
gradients and (n+1) x (n+1) blocks (_cell_derivatives), the barrier's at
f/m by homogeneity and scaled by one constant, plus the A-barrier's
rank-one c gE gE^T and pair terms.

Step solver: a step's system lives in the slot space of _free_slots, one
entry per free node plus a dump entry that takes the pinned nodes' terms
and is kept at 0 (the energy solve pins x and y, the barrier y alone).
The free gradient is scattered there by one bincount, and the Hessian is
one operator per Newton method (_CellOperator, _BarrierOperator) holding
the cell blocks of its point's one pass.  The method hands its solve the
right-hand side and CG's tolerance, and that solve alone compares the free
count with _CG_MIN_FREE.  Below it, the free block is assembled by one
bincount, gets its ridge from its trace and the pair terms in place, and
np.linalg.solve gives the step; the barrier's rank-one part is applied by
Sherman-Morrison on a two-column solve.  From there on, preconditioned
conjugate gradients (_pcg) apply the same operator cell by cell (take,
einsum, one bincount), the barrier adding its rank-one and pair terms
inside each product.  The energy step is preconditioned by the Hessian's
diagonal (Jacobi), the barrier step by the energy diagonal plus the pair
terms, one small dense block on the nodes of W, and the rank-one term; the
diagonal and that block are computed on this path alone.  The pair terms'
layout, the free slots of W's nodes and each term's place among them, is
built once per round (_WorkingSet): the dense path scatters the terms into
the free block, CG sums them into its W block.  CG starts at 0 and stops
at the relative residual min(0.5, sqrt(|grad| / E^)) 1e-2 in the energy
solve and 1e-6 in a centering, or after as many iterations as free nodes,
keeping that iterate (a descent direction; the Armijo search decides).
On 2-D and 3-D torus spikes the two break even at 140-200 free nodes, and
CG runs on one thread where LAPACK takes two.  A singular dense system, or
a CG direction of non-positive or non-finite curvature, raises SolverError.

Preconditioning: each solve internally rescales the instance by
sigma = d_{g0}(x,y) (distances by 1/sigma, metrics by 1/sigma^2) and maps
the value back with the exact homogeneity d -> sigma^t d.  This removes the
overall scale from the optimization, so scaled instances follow identical
iterate paths.

Pair coefficients: GaugeParams.build powers the pair distances once,
dt = d0(iu, iv)^t, and holder_seminorm divides by that array.  A solve's
normalized coefficients are inv_dt = dt[xy] / dt, xy the index of (x, y) in
(iu, iv), so that pair's own coefficient is exactly 1.

Orientation: the distance is symmetric in its endpoints (f -> -f maps one
orientation's feasible set onto the other's), so solve_dp solves the
canonical orientation (min(x, y), max(x, y)) and negates the extremal of a
swapped query; d(x, y) and d(y, x) are therefore bitwise equal.

Accuracy note: every value is attained by its extremal, rescaled to unit
exact gauge over all pairs, so it is a valid lower bound.  Energy-bound
pairs are solved to Newton-decrement accuracy.  A pair the cap-bound screen
settles has value D d_{g0}(x, y)^t / Phi with Phi <= 1 + _GAP_RTOL, within
1e-10 (relative) of that upper bound.  Every other pair stops at the
barrier gap m/t <= _GAP_RTOL f(x) on a working set that no pair violates,
so it lies within about 1e-10 (relative) of the supremum, whichever
constraint binds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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

    Build with :meth:`GaugeParams.build` from a ``geodesic.DistanceMatrix``;
    ``d0`` is its dense array, (iu, iv) the constrained node pairs (every
    pair u < v, row by row), ``dt`` = d0(iu, iv)^t, powered once here (a
    solve divides dt[xy] by it, so the pair (x, y) gets coefficient exactly
    1), and D in (0, +inf] the cap.
    """

    mesh: object
    p: float
    D: float
    t: float
    d0: np.ndarray
    iu: np.ndarray
    iv: np.ndarray
    dt: np.ndarray

    @classmethod
    def build(cls, mesh, dm0, p, D):
        n = mesh.dim
        if not p > n:
            raise SolverError(f"need p > n = {n}, got p = {p}")
        if p > P_CAP:
            raise SolverError(f"p is capped at {P_CAP:g}, got {p}")
        if not D > 0:
            raise SolverError(f"need D > 0 (may be inf), got {D}")
        t = (p - n) / p
        if dm0.mesh is not mesh:
            raise MeshMismatchError("distance matrix was built over a different mesh")
        d0 = dm0.dist
        N = mesh.num_nodes
        if d0.shape != (N, N):
            raise MeshMismatchError("distance matrix does not match mesh node count")
        iu, iv = np.triu_indices(N, k=1)
        pair_d0 = d0[iu, iv]
        if np.any(pair_d0 <= 0.0):
            raise ZeroDistancePairError("constrained pair with zero background distance")
        return cls(mesh, float(p), float(D), t, d0, iu, iv, pair_d0 ** t)


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
    energy_residual: float   # max(0, E_p(extremal)^{1/p} - 1)
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
    """Per-cell M_c F_c and q_c = F_c^T M_c F_c, F = f[nodes]; all cell-last."""
    F = f[nodes]
    MF = np.einsum("ijc,jc->ic", forms, F)
    return MF, np.einsum("ic,ic->c", F, MF)


def _norm_terms(q, w, p):
    """(m, E^(f/m), A) from f's cell densities q, m^2 = max_c q_c: A = E_p^{1/p} =
    m E^(f/m)^{1/p}, a stable weighted p-norm (no overflow at p = 128)."""
    u = np.sqrt(np.maximum(q, 0.0))
    m = u.max()
    E = float((w * (u / m) ** p).sum()) if m > 0.0 else 0.0
    return m, E, m * E ** (1.0 / p)


def energy_p(f, g, p):
    """sum_cells (df^T G^-1 df)^{p/2} sqrt(det G) vol_euclid(cell)."""
    if not p > 1:
        raise SolverError(f"need p > 1, got {p}")
    mesh = g.mesh
    f = ensure_function(mesh, f)
    forms, sqrt_dets = _cell_forms(mesh, g.tensors)
    nodes = np.ascontiguousarray(mesh.cells_nodes.T)
    return _norm_terms(_cell_energy(f, nodes, forms)[1], sqrt_dets * mesh.volumes, p)[2] ** p


def holder_seminorm(f, params):
    """max over the constrained pairs of |f(u) - f(v)| / d_{g0}(u,v)^t."""
    if params.iu.size == 0:
        raise SolverError("Holder pair set is empty")
    f = ensure_function(params.mesh, f)
    return float((np.abs(f[params.iu] - f[params.iv]) / params.dt).max())


class _Gauge:
    """Precomputed, sigma-normalized instance data of one solve (x < y)."""

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

        # Holder data: sigma^t / d0^t as dt[xy] / dt, exactly 1 at xy, the pair (x, y)
        self.iu, self.iv = params.iu, params.iv
        self.xy = x * (2 * mesh.num_nodes - x - 1) // 2 + y - x - 1
        self.inv_dt = params.dt[self.xy] / params.dt
        # normalized snowflake distances d0(x, .)^t and d0(y, .)^t
        self.dx, self.dy = (sigma ** -1 * params.d0[[x, y]]) ** params.t

    def start(self):
        """The background-distance profile, Holder-feasible by the snowflake bound."""
        f = np.clip(self.dy, 0.0, 1.0)
        f[self.fixed] = 1.0, 0.0
        return f

    def cap_candidates(self, f):
        """The cap-bound screen's three candidates, each with f(x) - f(y) = D.

        The envelopes max(0, D - D dx) and min(D, D dy) are D-Holder because
        d0^t is a metric; the third is D f clipped between them.
        """
        D = self.D
        lo = np.maximum(0.0, D - D * self.dx)
        hi = np.minimum(D, D * self.dy)
        return lo, hi, np.clip(D * f, lo, hi)

    def cells(self, f):
        """f's cell pass (M_c F_c, q_c) and its (m, E^(f/m), A) (:func:`_norm_terms`)."""
        MF, q = _cell_energy(f, self.nodes, self.forms)
        return (MF, q, *_norm_terms(q, self.w, self.p))

    def energy(self, f):
        """A(f) = E_p(f)^{1/p} of the normalized instance."""
        return self.cells(f)[-1]

    def ratios(self, f):
        """(f_u - f_v) * inv_dt over all pairs."""
        return (f[self.iu] - f[self.iv]) * self.inv_dt

    def terms(self, A, r):
        """Exact Phi = max(A, H/D) and the two terms, from A and the pair ratios r."""
        H = float(np.abs(r).max())
        return max(A, H / self.D), A, H


# Newton energy solve: step cap, ridge (relative to the mean Hessian
# diagonal), stop rule lambda^2 <= _NEWTON_RTOL E^ (or _NEWTON_FLOOR E^ on
# a step that needed a halving), and Armijo constants.
_NEWTON_MAX_STEPS = 200
_NEWTON_RIDGE = 1e-12
_NEWTON_RTOL = 1e-14
_NEWTON_FLOOR = 1e-10
_ARMIJO_SLOPE = 0.25
_ARMIJO_HALVINGS = 60

# Step solver: systems of at least _CG_MIN_FREE free nodes take
# matrix-free preconditioned CG steps (below it the dense solve is faster,
# on 2-D and 3-D torus spikes alike); CG stops at the relative residual
# min(0.5, sqrt(|grad| / E^)) _CG_ENERGY_RTOL in the energy solve and
# _CG_BARRIER_RTOL in a centering.
_CG_MIN_FREE = 200
_CG_ENERGY_RTOL = 1e-2
_CG_BARRIER_RTOL = 1e-6


def _free_slots(N, pinned):
    """Free index per node, in node order; the pinned nodes share the last, dump, index."""
    free = np.ones(N, dtype=bool)
    free[pinned] = False
    return np.where(free, np.cumsum(free) - 1, N - len(pinned))


def _energy_hat(f, nodes, forms, w, p):
    """E^(f) = sum_c w_c q_c^{p/2}, and the cell pass (M_c F_c, q_c) it was taken from."""
    MF, q = _cell_energy(f, nodes, forms)
    return float((w * np.maximum(q, 0.0) ** (0.5 * p)).sum()), MF, q


def _cell_derivatives(MF, q, forms, w, p):
    """Per-cell gradients and Hessian blocks of E^ from its cell pass (M_c F_c, q_c).

    With v_c = M_c F_c / sqrt(q_c) and a_c = p w_c q_c^{p/2-1}, cell c adds
    a_c M_c F_c to the gradient and the block a_c (M_c + (p-2) v_c v_c^T) to
    the Hessian, which stays finite where q_c is tiny; cells with q_c = 0
    get zero coefficients.  Both are cell-last, (n+1, C) and (n+1, n+1, C).
    """
    live = q > 0.0
    q = np.where(live, q, 1.0)
    a = np.where(live, p * w * q ** (0.5 * p - 1.0), 0.0)
    v = MF / np.sqrt(q)
    return a * MF, a * (forms + (p - 2.0) * v[:, None] * v[None, :])


def _slot_sum(pos, cell_values, k):
    """Sum cell-last per-corner values (n+1, C) into k slots by one bincount, dump entry 0."""
    out = np.bincount(pos.ravel(), weights=cell_values.ravel(), minlength=k)
    out[-1] = 0.0
    return out


class _CellOperator:
    """The ridged free Hessian sum_c S_c^T h_c S_c + ridge I of an energy Newton step.

    It maps slot vectors to slot vectors (see Step solver in the module
    docstring); ``pos`` (n+1, C) holds each cell corner's slot and
    ``blocks`` (n+1, n+1, C) the cell Hessians h_c.  The ridge is 1e-12
    times the mean free diagonal: the assembled trace on the dense path,
    the Jacobi diagonal on the CG path.
    """

    what = "energy Newton step"

    def __init__(self, blocks, pos, k):
        self.blocks, self.pos, self.k = blocks, pos, k

    def __call__(self, d):
        hd = np.einsum("ijc,jc->ic", self.blocks, d[self.pos])
        return _slot_sum(self.pos, hd, self.k) + self.ridge * d

    def _assemble(self):
        """The free block of sum_c S_c^T h_c S_c by one bincount; the pinned
        nodes' terms land in the dump row and column, which are cut off."""
        k = self.k
        flat = self.pos[:, None] * k + self.pos[None, :]
        hess = np.bincount(flat.ravel(), weights=self.blocks.ravel(), minlength=k * k)
        return hess.reshape(k, k)[:-1, :-1]

    def matrix(self):
        """The assembled free block with its ridge, taken from its trace."""
        hess = self._assemble()
        hess[np.diag_indices(self.k - 1)] += _NEWTON_RIDGE * np.trace(hess) / (self.k - 1)
        return hess

    def _dense(self, b):
        return _dense_solve(self.matrix(), b, self.what)

    def prepare(self):
        """The ridge and the Jacobi preconditioner ``diag`` of the CG path."""
        m = self.blocks.shape[0]
        diag = _slot_sum(self.pos, self.blocks[range(m), range(m)], self.k)
        self.ridge = _NEWTON_RIDGE * diag.sum() / (self.k - 1)
        self.diag = diag + self.ridge

    def precondition(self, r):
        """Jacobi: r / diag."""
        return r / self.diag

    def solve(self, b, rtol):
        """The step d with (this operator) d = b; b and d are slot vectors and
        rtol is CG's relative residual target."""
        if self.k - 1 < _CG_MIN_FREE:
            return np.append(self._dense(b[:-1]), 0.0)
        self.prepare()
        return _pcg(self, b, rtol)


def _pcg(op, b, rtol):
    """Preconditioned conjugate gradients for op d = b from d = 0.

    ``op`` is a :class:`_CellOperator`, which also supplies the
    preconditioner; b and d are slot vectors whose dump entry stays 0.  The
    iteration stops once |b - op d| <= rtol |b| (rtol is the inexact-Newton
    forcing term of Dembo, Eisenstat & Steihaug, 1982) or after as many
    iterations as there are free entries; the iterate at that cap is kept,
    since every CG iterate from d = 0 is a descent direction and the Armijo
    search decides.  A search direction of non-positive or non-finite
    curvature raises SolverError.
    """
    d = np.zeros_like(b)
    r = b.copy()
    z = op.precondition(r)
    s = z
    rz = float(r @ z)
    stop = (rtol * np.linalg.norm(b)) ** 2
    for _ in range(b.size - 1):
        qs = op(s)
        curv = float(s @ qs)
        if not (curv > 0.0 and math.isfinite(curv)):
            raise SolverError(f"{op.what}: CG direction of curvature {curv!r}")
        alpha = rz / curv
        d += alpha * s
        r -= alpha * qs
        if float(r @ r) <= stop:
            break
        z = op.precondition(r)
        rz, rz_prev = float(r @ z), rz
        s = z + (rz / rz_prev) * s
    return d


def _dense_solve(a, b, what):
    """np.linalg.solve, with a singular system raised as SolverError."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"{what}: {exc}") from exc


def _energy_system(cells, args, slot):
    """E^'s free gradient in slot space and Hessian :class:`_CellOperator` at f.

    ``cells`` = :func:`_energy_hat` (f, *args) is f's one cell pass, and f is
    not evaluated again.  ``args`` is (nodes, forms, w, p) and ``slot`` comes
    from :func:`_free_slots`; the cell terms come from :func:`_cell_derivatives`.
    """
    cell_grad, cell_h = _cell_derivatives(*cells[1:], *args[1:])
    pos = slot[args[0]]
    k = int(slot.max()) + 1
    return _slot_sum(pos, cell_grad, k), _CellOperator(cell_h, pos, k)


def _newton_energy(gauge, f):
    """Damped Newton minimization of E^ with the pinned values of f kept.

    Works on the sigma-normalized forms of ``gauge``, scaled by one constant
    so that the largest q_c at the start is 1 (q^{p/2} stays in range up to
    p = 128; the minimizer does not move).  The start and each line-search
    trial get one cell pass (:func:`_energy_hat`); each step builds the free
    gradient and the Hessian operator from its point's (:func:`_energy_system`)
    and solves the ridged Newton system with it, dense or by CG as its size
    decides; it stops once the decrement lambda^2 = -grad . step is at most
    _NEWTON_RTOL E^, and otherwise backtracks by halving until the Armijo
    test E^(f + t d) <= E^(f) - _ARMIJO_SLOPE t lambda^2 holds.  A step that
    needed a halving at lambda^2 <= _NEWTON_FLOOR E^ is the last: there E^
    moves by round-off only and the decrement stalls just above
    _NEWTON_RTOL.  A zero free gradient (every free cell flat, as on a box
    end cell) is a minimizer and returns at once: there the Hessian and its
    ridge are zero too.  Returns (f*, steps, converged); converged is False
    when the step cap or the line search ran out first.
    """
    slot = _free_slots(f.size, gauge.fixed)
    forms = gauge.forms / _cell_energy(f, gauge.nodes, gauge.forms)[1].max()
    args = (gauge.nodes, forms, gauge.w, gauge.p)
    f = f.copy()
    cells = _energy_hat(f, *args)
    for step in range(_NEWTON_MAX_STEPS):
        E = cells[0]
        grad, op = _energy_system(cells, args, slot)
        if not grad.any():
            return f, step, True
        # CG's forcing term tightens as the gradient falls
        d = op.solve(-grad, min(0.5, math.sqrt(np.linalg.norm(grad) / E)) * _CG_ENERGY_RTOL)
        lam2 = -float(grad @ d)
        if lam2 <= _NEWTON_RTOL * E:
            return f, step, True
        d = d[slot]
        t = 1.0
        for _ in range(_ARMIJO_HALVINGS):
            trial = f + t * d
            cells = _energy_hat(trial, *args)
            if cells[0] <= E - _ARMIJO_SLOPE * t * lam2:
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
    """The Holder pairs W of one barrier round and the layout of their Hessian terms:
    +h at (u, u), (v, v), -h at (u, v), (v, u), in that order over W, indexed
    (``rows``, ``cols``) into ``slots``, the free slots of W's nodes; the
    terms in y's dump row and column drop (``terms`` marks the others)."""

    def __init__(self, gauge, idx, slot):
        self.m = 1 + 2 * idx.size             # barrier terms: A and two per pair
        self.u, self.v = gauge.iu[idx], gauge.iv[idx]
        self.c = gauge.inv_dt[idx]
        self.su, self.sv = su, sv = slot[self.u], slot[self.v]
        self.ends = np.concatenate([su, sv])
        dump = slot.max()
        self.slots = np.unique(self.ends[self.ends < dump])
        rows, cols = np.concatenate([su, sv, su, sv]), np.concatenate([su, sv, sv, su])
        self.terms = np.maximum(rows, cols) < dump
        self.rows = np.searchsorted(self.slots, rows[self.terms])
        self.cols = np.searchsorted(self.slots, cols[self.terms])

    def ratios(self, f):
        return (f[self.u] - f[self.v]) * self.c


class _BarrierOperator(_CellOperator):
    """The free Hessian of F_t, H0 + c2 gE gE^T + L_W, in slot space.

    H0 is the energy operator, ridge included, of blocks scaled by dA/(m s),
    gE the free gradient of E^ and L_W = sum_W hz_k (e_u - e_v)(e_u - e_v)^T
    the pair terms, whose ends through y land in the dump slot.  :meth:`matrix` is
    H0 + L_W; the rank-one term is never assembled.
    """

    what = "barrier Newton step"

    def __init__(self, blocks, pos, k, c2, gE, W, hz):
        super().__init__(blocks, pos, k)
        self.c2, self.gE, self.W, self.hz = c2, gE, W, hz
        self.pair_terms = np.concatenate([hz, hz, -hz, -hz])[W.terms]   # in W's layout

    def __call__(self, d):
        W = self.W
        r = self.hz * (d[W.su] - d[W.sv])
        out = super().__call__(d) + (self.c2 * float(self.gE @ d)) * self.gE
        out += np.bincount(W.ends, weights=np.concatenate([r, -r]), minlength=d.size)
        out[-1] = 0.0
        return out

    def matrix(self):
        hess, W = super().matrix(), self.W
        np.add.at(hess, (W.slots[W.rows], W.slots[W.cols]), self.pair_terms)
        return hess

    def _dense(self, b):
        gE = self.gE[:-1]
        a, v = _dense_solve(self.matrix(), np.column_stack((b, gE)), self.what).T
        return a - (self.c2 * (gE @ a) / (1.0 + self.c2 * (gE @ v))) * v

    def prepare(self):
        """CG's preconditioner.  Near the boundary the rank-one and pair terms
        grow like 1/slack^2 and a diagonal preconditioner leaves CG stalling
        at its iteration cap (p = 128), so this one keeps them whole: H0's
        diagonal plus L_W, which couples only the few nodes of W and is
        inverted there as one dense block, and, where c2 > 0, the
        rank-one term by Sherman-Morrison.  Where c2 < 0 the term is left
        out: next to a diagonal that lacks H0's off-diagonal curvature it
        can make the preconditioner indefinite."""
        super().prepare()
        W = self.W
        m = W.slots.size
        block = np.bincount(W.rows * m + W.cols, weights=self.pair_terms, minlength=m * m)
        block = block.reshape(m, m) + np.diag(self.diag[W.slots])
        self.block_inv = _dense_solve(block, np.eye(m), self.what)
        self.rank_one = None
        if self.c2 > 0.0:
            pg = self._block_solve(self.gE)
            self.rank_one = (self.c2 / (1.0 + self.c2 * float(self.gE @ pg)), pg)

    def _block_solve(self, r):
        z = r / self.diag
        z[self.W.slots] = self.block_inv @ r[self.W.slots]
        return z

    def precondition(self, r):
        z = self._block_solve(r)
        if self.rank_one is not None:
            c, pg = self.rank_one
            z -= (c * float(self.gE @ z)) * pg
        return z


def _barrier_system(gauge, at, t, W, slot):
    """F_t's free gradient at f in slot space and its :class:`_BarrierOperator`.

    F_t(f) = -t f(x) - log(1 - A) - sum_W log((D - z_k)(D + z_k)) is never
    formed: _center's Armijo test takes the difference of two values term by
    term.  ``at`` = (*gauge.cells(f), W.ratios(f)) is f's one evaluation,
    its cell pass, A by the gauge's formula and z; f is not evaluated again.
    E^'s cell terms are taken at f/m, where E^ is of order one, by
    homogeneity (M_c F_c / m, q_c / m^2).  A is 1-homogeneous, so dA/df =
    (E^{1/p-1}/p) gE there and d^2A/df^2 picks up 1/m.  With the slack
    s = 1 - A, the Hessian is H0 + c2 gE gE^T + L_W, H0 of the energy blocks
    scaled in place by dA / (m s); its ridge is H0's alone (the pair terms,
    up to 1/slack^2, would swamp the energy curvature).
    """
    D, p = gauge.D, gauge.p
    MF, q, m, E, A, z = at
    cell_grad, cell_h = _cell_derivatives(MF / m, q / m ** 2, gauge.forms, gauge.w, p)
    s = 1.0 - A
    dA = E ** (1.0 / p - 1.0) / p
    c2 = dA * ((1.0 / p - 1.0) / (E * m * s) + dA / s ** 2)
    lo, hi = D - z, D + z
    gz = (1.0 / lo - 1.0 / hi) * W.c
    hz = (1.0 / lo ** 2 + 1.0 / hi ** 2) * W.c ** 2
    pos = slot[gauge.nodes]
    k = int(slot.max()) + 1
    gE = _slot_sum(pos, cell_grad, k)
    grad = (dA / s) * gE + np.bincount(W.ends, weights=np.concatenate([gz, -gz]), minlength=k)
    grad[slot[gauge.fixed[0]]] -= t
    grad[-1] = 0.0
    cell_h *= dA / (m * s)
    return grad, _BarrierOperator(cell_h, pos, k, c2, gE, W, hz)


def _center(gauge, f, at, t, W, slot):
    """Damped Newton minimization of F_t from a strictly feasible f.

    ``at`` = (*gauge.cells(f), W.ratios(f)) is f's pass, made by the caller;
    each line-search trial strictly inside W's bounds gets one cell pass and
    W.ratios.  Each step builds the free gradient and the Hessian operator
    from its point's (:func:`_barrier_system`) and solves the Newton system
    with it, dense or by CG as its size decides.  The Armijo test is written
    as the difference F_t(f + s d) - F_t(f), term by term, and a trial must
    stay strictly feasible on W.  Returns (f, f's pass, steps, centered).
    """
    D = gauge.D
    x = gauge.fixed[0]
    lam2_prev = math.inf
    for step in range(_MAX_CENTER_STEPS):
        A, z = at[-2:]
        grad, op = _barrier_system(gauge, at, t, W, slot)
        d = op.solve(-grad, _CG_BARRIER_RTOL)
        lam2 = -float(grad @ d)
        if lam2 <= _CENTER_TOL or _CENTER_FLOOR >= lam2 > 0.5 * lam2_prev:
            return f, at, step, True
        lam2_prev = lam2
        d = d[slot]
        dz = W.ratios(d)
        s = 1.0
        for _ in range(_ARMIJO_HALVINGS):
            trial = f + s * d
            z1 = W.ratios(trial)
            # a trial strictly inside W's bounds gets its cell pass (A1 last),
            # and is accepted only at A1 < 1: the next system's slack is > 0
            cells = gauge.cells(trial) if np.abs(z1).max() < D else (math.inf,)
            if cells[-1] < 1.0:
                dF = (-t * s * d[x] - math.log1p((A - cells[-1]) / (1.0 - A))
                      - float(np.log1p(-s * dz / (D - z)).sum())
                      - float(np.log1p(s * dz / (D + z)).sum()))
                if dF <= -_ARMIJO_SLOPE * s * lam2:
                    break
            s *= 0.5
        else:
            return f, at, step, lam2 <= _CENTER_FLOOR
        f, at = trial, (*cells, z1)
        if s < 1.0 and lam2 <= _CENTER_FLOOR:
            return f, at, step + 1, True
    return f, at, _MAX_CENTER_STEPS, False


def _largest(a, m):
    """Indices of the m largest entries of a, ties to the lowest index.

    The set is the first m of a stable argsort of -a, found by one partition
    and two passes instead of a sort.
    """
    if a.size <= m:
        return np.arange(a.size)
    kth = np.partition(a, a.size - m)[a.size - m]
    above = np.flatnonzero(a > kth)
    return np.concatenate([above, np.flatnonzero(a == kth)[:m - above.size]])


def _barrier_rounds(gauge, f, phi, r):
    """Barrier rounds from the screen's extremal f (f(x) = 1, f(y) = 0), of gauge phi.

    The screen's pair ratios r seed W; each round starts in one place, from
    f and phi, and makes f's pass there, and a continuation centering
    starts from the pass its predecessor returned.  After a centering, its
    last A and one pass r over all pairs give the violated pairs and the
    terms of a new round or of the result.
    Returns (f, its terms, Newton steps, centerings, converged), f strictly
    feasible on the last W.
    """
    x, y = gauge.fixed
    slot = _free_slots(f.size, [y])           # x is free here
    idx = np.union1d(_largest(np.abs(r), _SEED_PAIRS), [gauge.xy])
    steps = 0
    for centerings in range(1, _MAX_CENTERINGS + 1):
        if phi is not None:                   # a round starts: f moves inside, W and t are set
            f, phi = (_INTERIOR / phi) * f, None
            W = _WorkingSet(gauge, idx, slot)
            t = W.m / (_BARRIER_GAP0 * f[x])
            at = (*gauge.cells(f), W.ratios(f))
        f, at, used, centered = _center(gauge, f, at, t, W, slot)
        steps += used
        A, r = at[-2], gauge.ratios(f)
        if not centered:
            return f, gauge.terms(A, r), steps, centerings, False
        violated = np.flatnonzero(np.abs(r) > gauge.D)
        if violated.size:                     # the next round: W grows
            idx = np.union1d(idx, violated)
            phi = gauge.terms(A, r)[0]
        elif W.m / t <= _GAP_RTOL * f[x]:
            return f, gauge.terms(A, r), steps, centerings, True
        else:
            t = min(_BARRIER_GROWTH * t, W.m / (_GAP_RTOL * f[x]))
    return f, gauge.terms(A, r), steps, _MAX_CENTERINGS, False


def _solve_oriented(x, y, g, params):
    """The DistanceResult of the canonical orientation x <= y."""
    mesh = params.mesh
    N = mesh.num_nodes
    if not (0 <= x < N and 0 <= y < N):
        raise SolverError(f"node index out of range: {x}, {y}")
    if x == y:
        raise SameVertexError(f"source and sink coincide at node {x}")
    if g.mesh is not mesh:
        raise MeshMismatchError("metric and params live on different meshes")

    gauge = _Gauge(g, params, x, y)
    f, steps, newton_ok = _newton_energy(gauge, gauge.start())
    r = gauge.ratios(f)
    terms = gauge.terms(gauge.energy(f), r)
    if math.isinf(params.D) or (newton_ok and _active(*terms[1:], params.D) == "energy-bound"):
        return _result(gauge, g, params, x, y, f, terms, steps, newton_ok, 0)

    # cap-bound screen: f(x) - f(y) = D is the cap of the pair (x, y) itself,
    # so a candidate of exact gauge 1 attains the supremum
    cap, cap_terms = min(((c, gauge.terms(gauge.energy(c), gauge.ratios(c)))
                          for c in gauge.cap_candidates(f)), key=lambda c: c[1][0])
    if cap_terms[0] <= 1.0 + _GAP_RTOL:
        return _result(gauge, g, params, x, y, cap, cap_terms, steps, True, 0)

    f, terms, used, stages, converged = _barrier_rounds(gauge, f, terms[0], r)
    return _result(gauge, g, params, x, y, f, terms, steps + used, converged, stages)


def _active(A, H, D):
    """Which gauge term binds: the two tie within 1e-3 relative as "both"."""
    cap_term = H / D
    if abs(A - cap_term) <= 1e-3 * max(A, cap_term):
        return "both"
    return "energy-bound" if A > cap_term else "holder-bound"


def _result(gauge, g, params, x, y, f, terms, iterations, converged, stages):
    """The answer from candidate f with its gauge terms (Phi, A, H), rescaled to unit gauge."""
    phi, A, H = terms
    sig_t = gauge.sigma ** params.t
    value = sig_t * ((f[x] - f[y]) / phi)
    extremal = (sig_t / phi) * f
    e_res = max(0.0, energy_p(extremal, g, params.p) ** (1.0 / params.p) - 1.0)
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
    ``params``; it is accepted here to assert the fields share a mesh.  A
    solve that stops short raises NonConvergedError carrying its result.
    """
    if g0 is not None and g0.mesh is not params.mesh:
        raise MeshMismatchError("g0 lives on a different mesh than params")
    result = _solve_oriented(min(x, y), max(x, y), g, params)
    if x > y:
        result = replace(result, x=x, y=y, extremal=-result.extremal)
    if not result.converged:
        failure = (f"barrier stopped after {result.stages} centerings without reaching its "
                   "gap target" if result.stages else "Newton energy solve stopped after "
                   f"{result.iterations} steps without meeting its decrement test")
        raise NonConvergedError(f"{failure}: last value {result.value:.6g}", result=result)
    return result


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
            outcomes.append(PairOutcome(x, y, result=solve_dp(x, y, g, g0, params)))
        except SameVertexError:
            outcomes.append(PairOutcome(x, y, error="SameVertex"))
        except NonConvergedError as exc:
            outcomes.append(PairOutcome(x, y, result=exc.result, error="NonConverged"))
        except (SolverError, MeshMismatchError) as exc:
            outcomes.append(PairOutcome(x, y, error=f"{type(exc).__name__}: {exc}"))
    return outcomes
