"""Consensus-ADMM iteration engines with injected computation error.

Two engines drive the identical dynamics through different algebra and
cross-validate each other:

``run_decentralized``
    The per-node protocol.  Each iteration, node i solves

        (gram_i + 2c|N_i| I) x_i+ = rhs_i - alpha_i + c (|N_i| own + sum_nbrs)

    and then updates its dual alpha_i += c (|N_i| x_i+ - sum_j x_j+).  Only
    neighbor-local values are touched; the neighbor sums are
    :meth:`ArcMatrices.neighbor_sum`, the arc heads grouped by arc tail.

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

``run_matrix_form``, the plain reference, makes one
:func:`sample_error_block` call per message.  Gaussian, fixed-norm and
zero error do not depend on x, so ``run_decentralized`` draws them one
:func:`row_blocks` block of iterations (about 8192 node-iterations) per
call, identical to per-message draws; quantizer error depends on x and
is drawn per message.  ``run_decentralized`` takes one step per message,
k = 0..K-1: the message of x^k, then the dual update for k >= 1, then
the x-update.  Both modes run the same calls on the (2, N, n) stack
[x^k, x^k + e^k]; the mode only picks which rows feed the own term and
which the neighbor sum: both rows to both in ``analysis_faithful``
(slices of one sum equal separate sums bit for bit), x^k to the own term
and x^k + e^k to the sum in ``broadcast``, where that sum serves the
dual update and the next x-update.  A run of K iterations takes K
neighbor sums and K messages in either mode; it stops at x^K, so no
message of x^K is sent and no dual alpha^K is formed.

A :class:`Trajectory` holds only the engine state its reader needs (its
docstring lists the two ``record`` levels).  The arc-space quantities
derived from it (z, beta, e_z, the G-norm and the error gate) live in
:mod:`ncadmm.analysis`.
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
RECORDS = ("light", "errors")

# Node-iterations per chunked draw: keyed-normal throughput plateaus from
# about 4k lanes, and a chunk of 8k lanes peaks near 1.5 MB at any N
# (tracemalloc, n = 3: 1.48-1.52 MB for N in {20, 50, 200}).
_CHUNK_LANES = 8192


@dataclass(frozen=True, eq=False)
class ReferencePoint:
    """The stationary point of the noiseless iteration.

    x_star stacks the centralized solution at every node, so its arc
    average z* is the centralized solution on every arc; beta_star is the
    minimal-norm dual, which lies in the row space of Mminus.
    """

    x_star: np.ndarray     # (N, n)
    beta_star: np.ndarray  # (2E, n)
    x_central: np.ndarray  # (n,)


@dataclass(eq=False)
class Trajectory:
    """Record of a run; index 0 of every per-iteration array is the start.

    Only engine state is stored, as much as the record asked for:

    - "light": the iterates ``xs`` (the Monte Carlo sweep);
    - "errors": also the drawn error blocks ``e_xs``, a cache that spares
      ``run`` and ``audit`` a second draw (a gaussian ``run`` or ``audit``
      at N=200, K=1000 that draws again takes 1.4-1.5x as long).

    Message k carries iterate k, for k = 0..K-1; :meth:`errors` gives the
    error blocks on them from either record.  Every run starts from zero
    duals, so ``xs`` alone gives the arc variables (see
    :func:`ncadmm.analysis.gnorm_series`).
    """

    graph: Graph
    c: float
    xs: np.ndarray                    # (K+1, N, n)
    noise: NoiseModel
    stream: RandomStream
    e_xs: np.ndarray | None = None    # (K, N, n), gaussian and fixed_norm only

    def __len__(self) -> int:
        return self.xs.shape[0]

    @property
    def n_iter(self) -> int:
        return self.xs.shape[0] - 1

    def errors(self, rows: slice) -> np.ndarray:
        """The (len, N, n) error blocks on messages ``rows``, bit for bit the engine's.

        The kept draws when the record has them, else the same keyed
        :func:`sample_error_block` call again, on those messages' iterates.
        """
        if self.e_xs is not None:
            return self.e_xs[rows]
        iterations = np.arange(self.n_iter)[rows]
        return sample_error_block(self.noise, self.xs[:-1][rows], self.stream, iterations)


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
    grad = obj.gradient_stack(x_star)
    beta_star, *_ = np.linalg.lstsq(am.m_minus, -grad, rcond=None)
    residual = float(np.linalg.norm(grad + am.apply_mminus(beta_star)))
    scale = max(1.0, float(np.linalg.norm(grad)))
    if residual > 1e-8 * scale:
        raise ValueError(f"stationarity residual {residual:.3e} exceeds tolerance")
    return ReferencePoint(x_star=x_star, beta_star=beta_star, x_central=x_central)


def x_err_series(traj: Trajectory, ref: ReferencePoint) -> np.ndarray:
    """Stacked-vector distances ||x^k - x*||_2 per iteration, in :func:`row_blocks` blocks."""
    out = np.empty(len(traj))
    for rows in row_blocks(len(traj), traj.xs.shape[1]):
        d = traj.xs[rows] - ref.x_star
        d *= d
        out[rows] = np.sum(d, axis=(1, 2))
    return np.sqrt(out, out=out)


def _solve_operators(g: Graph, obj: ObjectiveSet, c: float) -> np.ndarray:
    """Per-node inverses of (gram_i + 2c|N_i| I), built once per run.

    The shifted matrices are constant across iterations and positive
    definite, so a one-time inverse applied per step is both cheap and
    stable.
    """
    shifts = (2.0 * c * g.degrees)[:, None, None] * np.eye(obj.dim)
    return np.linalg.inv(obj.grams + shifts)


def row_blocks(n_rows: int, lanes: int):
    """Slices covering rows 0..n_rows-1 of ``lanes`` lanes, about ``_CHUNK_LANES`` per block.

    The one block rule of the per-node engine's draws and of every pass over a record.
    """
    rows = max(1, _CHUNK_LANES // lanes)
    return (slice(start, min(start + rows, n_rows)) for start in range(0, n_rows, rows))


def _error_source(model: NoiseModel, stream: RandomStream, shape: tuple, keep: bool):
    """:func:`run_decentralized`'s draws: ``error(k, x)``, the error block on
    the messages carrying iterate k, and the kept draws.

    ``shape`` is (K, N, n).  Quantizer error is computed from x per
    request and never kept (the record derives it again).  Every other kind
    is drawn one :func:`row_blocks` block of iterations per call and, when
    ``keep``, a gaussian or fixed_norm block is stored once into the kept
    array (``none`` error is zero, and the record gives zeros without it);
    requests must come in order k = 0, 1, ...
    """
    if model.kind == "quantizer":
        return (lambda k, x: sample_error_block(model, x, stream, k)), None
    keep = keep and model.kind != "none"
    kept = np.empty(shape) if keep else None
    blocks = row_blocks(shape[0], shape[1])
    rows, block = slice(0, 0), None

    def error(k: int, x: np.ndarray) -> np.ndarray:
        nonlocal rows, block
        if k >= rows.stop:
            rows = next(blocks)
            block = sample_error_block(model, x, stream, np.arange(rows.start, rows.stop))
            if keep:
                kept[rows] = block
        return block[k - rows.start]
    return error, kept


def _check_run_args(g: Graph, obj: ObjectiveSet, c: float, max_iter: int) -> None:
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
    record: str = "errors",
) -> Trajectory:
    """Run the per-node protocol for ``max_iter`` iterations.

    Starts from x = alpha = 0.  ``record``, one of :data:`RECORDS`, picks
    what the :class:`Trajectory` keeps (see there); any other value is
    rejected.
    """
    _check_run_args(g, obj, c, max_iter)
    if mode not in PLACEMENT_MODES:
        raise ValueError(f"unknown placement mode {mode!r}; expected one of {PLACEMENT_MODES}")
    if record not in RECORDS:
        raise ValueError(f"unknown record {record!r}; expected one of {RECORDS}")
    n_nodes, dim = g.n_nodes, obj.dim
    am = build_arc_matrices(g)
    inv_ops = _solve_operators(g, obj, c)

    x = np.zeros((n_nodes, dim))
    alpha = np.zeros((n_nodes, dim))

    xs = np.empty((max_iter + 1, n_nodes, dim))
    xs[0] = x

    # Every step works on same-shape (N, n) operands in preallocated
    # buffers: numpy's per-call cost, not arithmetic, sets the speed here.
    # stack holds [x, x_hat]; own and msgs are the rows that feed the own
    # term and the neighbor sum.  w[0] becomes the dual increment
    # c (|N_i| x_i - sum_j msg_j) and w[1] the x-update term
    # c (|N_i| own_i + sum_j x_hat_j), each rounded as the one-line formula.
    deg2 = np.broadcast_to(g.degrees.astype(float)[:, None], (2, n_nodes, dim)).copy()
    stack = np.empty((2, n_nodes, dim))
    w = np.empty((2, n_nodes, dim))
    rhs = np.empty((n_nodes, dim))

    own, msgs = (stack, stack) if mode == ANALYSIS_FAITHFUL else (stack[:1], stack[1:])
    error, e_xs = _error_source(model, stream, (max_iter, n_nodes, dim), record == "errors")
    for k in range(max_iter):
        stack[0] = x
        np.add(x, error(k, x), out=stack[1])
        nb = am.neighbor_sum(msgs)
        np.multiply(deg2, own, out=w)
        w[0] -= nb[0]
        w[1] += nb[-1]
        w *= c
        if k:
            alpha += w[0]
        np.subtract(obj.rhs, alpha, out=rhs)
        rhs += w[1]
        x = np.einsum("nij,nj->ni", inv_ops, rhs, out=xs[k + 1])

    return Trajectory(graph=g, c=c, xs=xs, e_xs=e_xs, noise=model, stream=stream)


def run_matrix_form(
    g: Graph,
    obj: ObjectiveSet,
    c: float,
    model: NoiseModel,
    max_iter: int,
    stream: RandomStream,
) -> Trajectory:
    """Run the stacked arc-matrix recursion (analysis-faithful placement).

    The plain reference for :func:`run_decentralized`: it starts from
    x = beta = 0 and draws each message's error with its own
    :func:`sample_error_block` call, the identical realization for the same
    stream, so the two engines cross-validate the same dynamics.  The record
    is "light"; :meth:`Trajectory.errors` derives the draws.
    """
    _check_run_args(g, obj, c, max_iter)
    am = build_arc_matrices(g)
    inv_ops = _solve_operators(g, obj, c)

    x = np.zeros((g.n_nodes, obj.dim))
    beta = np.zeros((g.n_arcs, obj.dim))
    xs = np.zeros((max_iter + 1, *x.shape))  # xs[0] is the zero start
    for k in range(max_iter):
        z_hat = 0.5 * am.apply_mplus_t(x + sample_error_block(model, x, stream, k))
        rhs = obj.rhs - am.apply_mminus(beta) + c * am.apply_mplus(z_hat)
        x = np.einsum("nij,nj->ni", inv_ops, rhs)
        beta = beta + (0.5 * c) * am.apply_mminus_t(x)
        xs[k + 1] = x

    return Trajectory(graph=g, c=c, xs=xs, noise=model, stream=stream)
