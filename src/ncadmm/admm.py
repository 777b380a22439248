"""Consensus-ADMM iteration engines with injected computation error.

Two engines drive the identical dynamics through different algebra and
cross-validate each other:

``run_decentralized``
    The per-node protocol.  Each iteration, node i solves

        (gram_i + 2c|N_i| I) x_i+ = rhs_i - alpha_i + c (|N_i| own + sum_nbrs)

    and then updates its dual alpha_i += c (|N_i| x_i+ - sum_j x_j+).  Only
    neighbor-local values are touched; neighbor sums run over explicit
    adjacency lists.

``run_matrix_form``
    The stacked primal-dual recursion over the arc matrices: with
    z = 0.5 * Mplus.T x, dual beta, and alpha = Mminus beta,

        grad f(x+) + alpha + 2c D x+ - c Mplus z_hat = 0
        beta+ = beta + (c/2) Mminus.T x+
        z+    = 0.5 * Mplus.T x+

    where z_hat = 0.5 * Mplus.T (x + e_x) carries the injected error.

Noise placement modes:

``analysis_faithful``
    The noisy block x_hat = x + e enters only the x-update's
    c(|N_i| x_i + sum_j x_j) term, including each node's own value; the
    dual update uses exact values.  This is what the matrix recursion above
    perturbs, so it is the mode the convergence certificates target.

``broadcast``
    One noisy value per node per iterate: the broadcast of x^k is used by
    neighbors both in the dual update that consumes x^k and in the next
    x-update; a node's own value stays exact.  Physically realistic
    message-passing; the certificates do not formally cover it.

Error blocks are keyed by (seed, trial, cell, node, iteration-of-the-
perturbed-iterate), so both engines and both modes replay the identical
realization from the same stream.

Gaussian and fixed-norm error does not depend on x, so the engines draw it
for a chunk of iterations per :func:`sample_error_block` call (about 8192
node-iterations); the values are identical to per-iteration draws.
Quantizer error depends on x and is drawn per iteration.  Each message is
drawn once: in ``broadcast`` mode the error on the message carrying
iterate k+1 is carried forward to the next x-update.

A :class:`Trajectory` holds only engine state (iterates, per-node duals,
error blocks and the initial arc dual); :meth:`Trajectory.arc_states`
streams the arc variables z and beta from it, one iteration at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import NoiseModel, RandomStream, sample_error_block
from .objective import ObjectiveSet
from .topology import Graph, build_arc_matrices

ANALYSIS_FAITHFUL = "analysis_faithful"
BROADCAST = "broadcast"
PLACEMENT_MODES = (ANALYSIS_FAITHFUL, BROADCAST)

# Node-iterations per chunked draw: keyed-normal throughput plateaus from
# about 4k lanes, and a chunk of 8k lanes peaks near 1.5 MB at any N
# (tracemalloc, n = 3: 1.48-1.52 MB for N in {20, 50, 200}).
_CHUNK_LANES = 8192
_STATE_FREE_KINDS = ("gaussian", "fixed_norm")


@dataclass(frozen=True, eq=False)
class ReferencePoint:
    """The stationary point of the noiseless iteration.

    x_star stacks the centralized solution at every node; z_star is its arc
    average (equal to the centralized solution on every arc); beta_star is
    the minimal-norm dual, which lies in the row space of Mminus.
    """

    x_star: np.ndarray     # (N, n)
    z_star: np.ndarray     # (2E, n)
    beta_star: np.ndarray  # (2E, n)
    x_central: np.ndarray  # (n,)


@dataclass(eq=False)
class Trajectory:
    """Record of a run; index 0 of every per-iteration array is the start.

    Only engine state is stored.  ``e_xs[k]`` is the error block added to
    the messages carrying iterate k; ``alphas`` is the per-node dual the
    engine carried; the arc variables follow from ``xs`` and the initial
    arc dual ``beta0`` through :meth:`arc_states`.  ``alphas``/``e_xs``/
    ``beta0`` are None for metric-only runs (record "light"); analysis
    functions require a full record.
    """

    graph: Graph
    c: float
    xs: np.ndarray                 # (K+1, N, n)
    alphas: np.ndarray | None      # (K+1, N, n)
    e_xs: np.ndarray | None        # (K, N, n)
    beta0: np.ndarray | None       # (2E, n)

    def __len__(self) -> int:
        return self.xs.shape[0]

    @property
    def n_iter(self) -> int:
        return self.xs.shape[0] - 1

    def arc_states(self):
        """Yield the arc variables (z^k, beta^k) for k = 0..K, in iteration order:

            z^k    = 0.5 * Mplus.T x^k
            beta^k = beta^{k-1} + (c/2) * Mminus.T x^k,   beta^0 = beta0

        Each pair is derived when it is reached, so no (K+1, 2E, n) history
        is built.  Needs a full record.
        """
        self.require_full()
        am = build_arc_matrices(self.graph)
        beta = self.beta0
        for k, x in enumerate(self.xs):
            if k:
                beta = beta + (0.5 * self.c) * am.apply_mminus_t(x)
            yield 0.5 * am.apply_mplus_t(x), beta

    def require_full(self) -> None:
        if self.alphas is None or self.e_xs is None or self.beta0 is None:
            raise ValueError("this operation needs a trajectory recorded with record='full'")


def reference_point(g: Graph, obj: ObjectiveSet) -> ReferencePoint:
    """Consensus stack of the centralized solution plus the matching duals.

    beta_star solves Mminus beta = -grad f(x_star) in the minimal-norm
    least-squares sense, which places it in the column space of Mminus.T.
    The stationarity residual must come out below 1e-8 or the problem is
    rejected as too ill-conditioned.
    """
    am = build_arc_matrices(g)
    x_central = obj.centralized_solution()
    x_star = np.tile(x_central, (g.n_nodes, 1))
    z_star = 0.5 * am.apply_mplus_t(x_star)
    grad = obj.gradient_stack(x_star)
    beta_star, *_ = np.linalg.lstsq(am.m_minus, -grad, rcond=None)
    residual = float(np.linalg.norm(grad + am.apply_mminus(beta_star)))
    scale = max(1.0, float(np.linalg.norm(grad)))
    if residual > 1e-8 * scale:
        raise ValueError(f"stationarity residual {residual:.3e} exceeds tolerance")
    return ReferencePoint(x_star=x_star, z_star=z_star, beta_star=beta_star,
                          x_central=x_central)


def gnorm_series(traj: Trajectory, ref: ReferencePoint) -> np.ndarray:
    """The squared weighted primal-dual error at every iteration."""
    out = np.empty(len(traj))
    for k, (z, beta) in enumerate(traj.arc_states()):
        dz = z - ref.z_star
        db = beta - ref.beta_star
        out[k] = traj.c * np.sum(dz * dz) + np.sum(db * db) / traj.c
    return out


def x_err_series(traj: Trajectory, ref: ReferencePoint) -> np.ndarray:
    """Stacked-vector distances ||x^k - x*||_2 at every iteration."""
    d = traj.xs - ref.x_star
    return np.sqrt(np.sum(d * d, axis=(1, 2)))


def _solve_operators(g: Graph, obj: ObjectiveSet, c: float) -> np.ndarray:
    """Per-node inverses of (gram_i + 2c|N_i| I), built once per run.

    The shifted matrices are constant across iterations and positive
    definite, so a one-time inverse applied per step is both cheap and
    stable.
    """
    shifts = (2.0 * c * g.degrees)[:, None, None] * np.eye(obj.dim)
    return np.linalg.inv(obj.grams + shifts)


def _error_source(model: NoiseModel, stream: RandomStream, n_nodes: int, n_draws: int):
    """``error(k, x)``: the error block on the messages carrying iterate k.

    State-free kinds are drawn ``max(1, _CHUNK_LANES // n_nodes)``
    iterations per call, over iterations 0..n_draws-1; requests must come
    in nondecreasing k.  Other kinds are drawn from x per request.
    """
    if model.kind not in _STATE_FREE_KINDS:
        return lambda k, x: sample_error_block(model, x, stream, k)
    chunk = max(1, _CHUNK_LANES // n_nodes)
    start, block = 0, np.empty((0,))

    def error(k: int, x: np.ndarray) -> np.ndarray:
        nonlocal start, block
        if k >= start + block.shape[0]:
            start = k
            block = sample_error_block(model, x, stream,
                                       np.arange(k, min(k + chunk, n_draws)))
        return block[k - start]
    return error


def _check_run_args(g: Graph, obj: ObjectiveSet, c: float, max_iter: int) -> None:
    if g.n_edges == 0:
        raise ValueError("graph has no edges; the iteration is undefined")
    if obj.n_nodes != g.n_nodes:
        raise ValueError(
            f"objective has {obj.n_nodes} locals but graph has {g.n_nodes} nodes"
        )
    if c <= 0.0:
        raise ValueError(f"c must be positive, got {c}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")


def run_decentralized(
    g: Graph,
    obj: ObjectiveSet,
    c: float,
    model: NoiseModel,
    mode: str,
    max_iter: int,
    stream: RandomStream,
    record: str = "full",
) -> Trajectory:
    """Run the per-node protocol for ``max_iter`` iterations.

    Starts from x = alpha = 0.  ``record="light"`` keeps only the x history
    (used by the Monte Carlo sweep); "full" additionally stores the per-node
    duals, the injected error blocks and the initial arc dual, from which
    the trajectory derives its arc variables.
    """
    _check_run_args(g, obj, c, max_iter)
    if mode not in PLACEMENT_MODES:
        raise ValueError(f"unknown placement mode {mode!r}; expected one of {PLACEMENT_MODES}")
    n_nodes, dim = g.n_nodes, obj.dim
    degrees = g.degrees.astype(float)[:, None]
    flat_nbrs = np.concatenate([np.array(nb, dtype=np.intp) for nb in g.neighbors])
    offsets = np.zeros(n_nodes, dtype=np.intp)
    np.cumsum(g.degrees[:-1], out=offsets[1:])
    inv_ops = _solve_operators(g, obj, c)

    full = record == "full"
    x = np.zeros((n_nodes, dim))
    alpha = np.zeros((n_nodes, dim))

    xs = np.empty((max_iter + 1, n_nodes, dim))
    xs[0] = x
    alphas = e_xs = beta0 = None
    if full:
        alphas = np.empty_like(xs)
        alphas[0] = alpha
        e_xs = np.empty((max_iter, n_nodes, dim))
        beta0 = np.zeros((g.n_arcs, dim))

    def nbr_sum(values: np.ndarray) -> np.ndarray:
        return np.add.reduceat(values[flat_nbrs], offsets, axis=0)

    # broadcast also perturbs the message carrying the final iterate; that
    # message is drawn once and feeds the next x-update as well
    n_draws = max_iter + 1 if mode == BROADCAST else max_iter
    error = _error_source(model, stream, n_nodes, n_draws)
    e_k = error(0, x)
    for k in range(max_iter):
        x_hat = x + e_k
        own = x_hat if mode == ANALYSIS_FAITHFUL else x
        rhs = obj.rhs - alpha + c * (degrees * own + nbr_sum(x_hat))
        x_new = np.einsum("nij,nj->ni", inv_ops, rhs)
        e_next = error(k + 1, x_new) if k + 1 < n_draws else None

        reported = x_new if mode == ANALYSIS_FAITHFUL else x_new + e_next
        alpha = alpha + c * (degrees * x_new - nbr_sum(reported))
        x = x_new

        xs[k + 1] = x
        if full:
            alphas[k + 1] = alpha
            e_xs[k] = e_k
        e_k = e_next

    return Trajectory(graph=g, c=c, xs=xs, alphas=alphas, e_xs=e_xs, beta0=beta0)


def run_matrix_form(
    g: Graph,
    obj: ObjectiveSet,
    c: float,
    model: NoiseModel,
    max_iter: int,
    stream: RandomStream,
    x0: np.ndarray | None = None,
    beta0: np.ndarray | None = None,
) -> Trajectory:
    """Run the stacked arc-matrix recursion (analysis-faithful placement).

    Consumes the identical error realization as :func:`run_decentralized`
    for the same stream, which makes the two engines cross-validating
    implementations of the same dynamics.  The record is always full.
    ``beta0`` should lie in the row space of Mminus (the zero default does)
    for the certificates to apply.
    """
    _check_run_args(g, obj, c, max_iter)
    n_nodes, dim = g.n_nodes, obj.dim
    am = build_arc_matrices(g)
    inv_ops = _solve_operators(g, obj, c)

    x = np.zeros((n_nodes, dim)) if x0 is None else np.array(x0, dtype=float)
    beta = np.zeros((g.n_arcs, dim)) if beta0 is None else np.array(beta0, dtype=float)
    beta_start = beta
    alpha = am.apply_mminus(beta)

    xs = np.empty((max_iter + 1, n_nodes, dim))
    xs[0] = x
    alphas = np.empty_like(xs)
    alphas[0] = alpha
    e_xs = np.empty((max_iter, n_nodes, dim))

    error = _error_source(model, stream, n_nodes, max_iter)
    for k in range(max_iter):
        e_k = error(k, x)
        z_hat = 0.5 * am.apply_mplus_t(x + e_k)
        rhs = obj.rhs - alpha + c * am.apply_mplus(z_hat)
        x = np.einsum("nij,nj->ni", inv_ops, rhs)
        beta = beta + (0.5 * c) * am.apply_mminus_t(x)
        alpha = am.apply_mminus(beta)

        xs[k + 1] = x
        alphas[k + 1] = alpha
        e_xs[k] = e_k

    return Trajectory(graph=g, c=c, xs=xs, alphas=alphas, e_xs=e_xs, beta0=beta_start)
