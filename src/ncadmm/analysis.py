"""Convergence certificates, arc-space analysis and post-hoc trajectory audits.

The certificate machinery evaluates, for a graph spectrum and objective
moduli, the contraction constants

    a     = (c/4) sp^2 + 2 mu M_f^2 / (c smn^2) + 4 c sp^2 sm^2 / smn^4
    b     = 2 sp^2 / ((1 - 1/mu) smn^2)
    delta = min( (m_f - c sp / 2) / a , 1 / b )

with sp = sigma_max(Mplus), sm = sigma_max(Mminus), smn the smallest
nonzero singular value of Mminus, and any mu > 1.  The certified per-step
bound on the squared weighted primal-dual error is 1/(1 + delta), valid at
iterations where the error gate ||e_z^k|| <= ||x^{k+1} - x*|| holds.

Two inequality readings exist for the admissible step size and both are
reported rather than silently merged: ``cond_squared`` checks
m_f - (c/2) sp^2 >= 0 (which also makes the primal bound coefficient
1/(m_f - (c/2) sp^2) meaningful) while ``cond_linear`` checks
m_f - (c/2) sp >= 0 (what a nonnegative delta needs).  The steady-state
coefficient likewise comes in a square-root and a stated variant,
sqrt(max_degree) resp. max_degree times the error norm.

The arc-space quantities of a run are derived here, never stored, from
the iterates of either record: the arc variables

    z^k    = 0.5 * Mplus.T x^k
    beta^k = beta^{k-1} + (c/2) * Mminus.T x^k,   beta^0 = 0

feed the squared G-norm c ||z^k - x_c||^2 + ||beta^k - beta*||^2 / c
(:func:`gnorm_series`; z* is x_c on every arc), and the arc-space error
e_z^k = 0.5 * Mplus.T e_x^k (:func:`derive_ez_block`, e_x^k from
:meth:`ncadmm.admm.Trajectory.errors`) feeds the gate
(:func:`error_gates`).  Both series walk the record in the
engine's blocks of iterations (:func:`ncadmm.admm.row_blocks` over the
arcs), with one arc-operator call per block, so no (K+1, 2E, n) array is
built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .admm import ReferencePoint, Trajectory, row_blocks, x_err_series
from .noise import sum_last_axis
from .topology import Graph, SpectralSummary, build_arc_matrices

_RATIO_FLOOR = 1e-14
_AUDIT_TOL = 1e-12

# The certificate-search grid: mu = 1 + 10^t, t in [-3, 3], 121 points.
MU_GRID = 1.0 + 10.0 ** np.linspace(-3.0, 3.0, 121)
MU_GRID.flags.writeable = False


@dataclass(frozen=True)
class TheoryReport:
    """Flat bundle of certificate constants and condition flags."""

    m_f: float
    M_f: float
    c: float
    mu: float
    sigma_max_mplus: float
    sigma_max_mminus: float
    sigma_min_nz_mminus: float
    a: float
    b: float
    delta: float
    contraction_factor: float
    cond_squared: bool
    cond_linear: bool
    x_bound_coeff: float
    corollary_bound_sqrt: float
    corollary_bound_stated: float

    def to_json_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and not math.isfinite(v):
                v = None
            out[f.name] = v
        return out

    @property
    def conditions_hold(self) -> bool:
        return self.cond_squared and self.cond_linear


def _certificate(spec: SpectralSummary, m_f: float, M_f: float, c: float, mu):
    """(a, b, delta) of the module docstring, for a scalar ``mu`` or an array of them."""
    if c <= 0.0:
        raise ValueError(f"c must be positive, got {c}")
    if m_f <= 0.0:
        raise ValueError(f"m_f must be positive, got {m_f}")
    sp = spec.sigma_max_mplus
    sm = spec.sigma_max_mminus
    smn = spec.sigma_min_nz_mminus
    a = 0.25 * c * sp**2 + 2.0 * mu * M_f**2 / (c * smn**2) + 4.0 * c * sp**2 * sm**2 / smn**4
    b = 2.0 * sp**2 / ((1.0 - 1.0 / mu) * smn**2)
    return a, b, np.minimum((m_f - 0.5 * c * sp) / a, 1.0 / b)


def theory_constants(
    spec: SpectralSummary,
    m_f: float,
    M_f: float,
    c: float,
    mu: float,
    sigma_e: float = 0.0,
) -> TheoryReport:
    """Evaluate the certificate constants exactly as defined above.

    ``sigma_e`` (the constant stacked error norm, when relevant) only feeds
    the steady-state bounds; pass 0 when no noise is involved.
    """
    if mu <= 1.0:
        raise ValueError(f"mu must exceed 1, got {mu}")
    a, b, delta = _certificate(spec, m_f, M_f, c, mu)
    delta = float(delta)  # np.minimum returns np.float64; report fields are floats
    sp = spec.sigma_max_mplus
    denom_sq = m_f - 0.5 * c * sp**2
    return TheoryReport(
        m_f=m_f,
        M_f=M_f,
        c=c,
        mu=mu,
        sigma_max_mplus=sp,
        sigma_max_mminus=spec.sigma_max_mminus,
        sigma_min_nz_mminus=spec.sigma_min_nz_mminus,
        a=a,
        b=b,
        delta=delta,
        contraction_factor=1.0 / (1.0 + delta),
        cond_squared=denom_sq >= 0.0,
        cond_linear=m_f - 0.5 * c * sp >= 0.0,
        x_bound_coeff=1.0 / denom_sq if denom_sq > 0.0 else math.inf,
        corollary_bound_sqrt=math.sqrt(spec.max_degree) * sigma_e,
        corollary_bound_stated=spec.max_degree * sigma_e,
    )


def optimize_delta(
    spec: SpectralSummary,
    m_f: float,
    M_f: float,
    c: float,
) -> tuple[float, float]:
    """Best (mu, delta) over :data:`MU_GRID`, the first maximum in grid order.

    A grid search, not an analytic optimum: the returned delta is a valid
    certificate because the bound holds for every mu > 1.  When the linear
    condition m_f >= c * sigma_max(Mplus) / 2 fails, no positive delta
    exists and (2.0, 0.0) is returned.
    """
    if m_f - 0.5 * c * spec.sigma_max_mplus < 0.0:
        return 2.0, 0.0
    deltas = _certificate(spec, m_f, M_f, c, MU_GRID)[2]
    best = int(np.argmax(deltas))
    return float(MU_GRID[best]), max(float(deltas[best]), 0.0)


@dataclass(eq=False)
class ContractionAudit:
    """Per-iteration comparison of a run against its certificate.

    ``ratios[k]`` is the measured squared-G-norm ratio of step k -> k+1
    (nan when both norms sit below the degeneracy floor), ``gates[k]`` the
    error gate ||e_z^k|| <= ||x^{k+1} - x*||, and ``x_bound_slack[k]`` the
    margin of the primal bound
    x_bound_coeff * gnorm_k - ||x^{k+1} - x*||^2 (only meaningful where
    checked).  The two ``*_violated`` masks flag the iterations where a
    checked inequality failed beyond the additive tolerance.
    """

    ratios: np.ndarray
    gates: np.ndarray
    skipped: np.ndarray
    checked: np.ndarray
    x_bound_slack: np.ndarray
    contraction_violated: np.ndarray
    x_bound_violated: np.ndarray


def gnorm_series(traj: Trajectory, ref: ReferencePoint) -> np.ndarray:
    """The squared weighted primal-dual error at every iteration k = 0..K.

    Each :func:`row_blocks` block takes one gather of x[tail] and x[head],
    which gives z and the beta increments; beta accumulates row by row in
    iteration order (``np.cumsum`` is 8x slower on the audit's 5-row
    blocks), so every row equals the one-step formula bit for bit.
    Each iteration's squares are summed over its flattened (2E * n) arc
    entries, as for one array.
    """
    am = build_arc_matrices(traj.graph)
    half_c = 0.5 * traj.c
    # z* is x_c on every arc; a whole (2E, n) operand keeps the subtraction
    # one long loop, where broadcasting the (n,) row would loop n at a time
    z_star = np.tile(ref.x_central, (traj.graph.n_arcs, 1))
    out = np.empty(len(traj))
    for rows in row_blocks(len(traj), traj.graph.n_arcs):
        x_tail, x_head = am.arc_ends(traj.xs[rows])
        dz = x_tail + x_head
        dz *= 0.5
        db = np.subtract(x_tail, x_head, out=x_tail)
        db *= half_c
        if rows.start:
            np.add(beta, db[0], out=db[0])
        else:
            db[0] = 0.0
        for k in range(1, len(db)):
            np.add(db[k - 1], db[k], out=db[k])
        beta = db[-1].copy()  # beta^{k-1} of the next block's first row
        dz -= z_star
        db -= ref.beta_star
        dz *= dz
        db *= db
        out[rows] = (traj.c * dz.reshape(len(dz), -1).sum(axis=1)
                     + db.reshape(len(db), -1).sum(axis=1) / traj.c)
    return out


def derive_ez_block(e_x_nodes: np.ndarray, am) -> np.ndarray:
    """Arc-space error e_z = 0.5 * m_plus.T @ e_x for (..., N, n) blocks: (..., 2E, n)."""
    e_x = np.asarray(e_x_nodes, dtype=float)
    if e_x.ndim < 2 or e_x.shape[-2] != am.n_nodes:
        raise ValueError(f"error block of shape {e_x.shape} needs N={am.n_nodes} node rows")
    e_z = am.apply_mplus_t(e_x)
    e_z *= 0.5
    return e_z


def error_gates(traj: Trajectory, xerr: np.ndarray) -> np.ndarray:
    """The error gate ||e_z^k|| <= ||x^{k+1} - x*|| at every step k, shape (K,).

    ``xerr`` is :func:`x_err_series` of the same run, K+1 entries; any
    other length is rejected.  e_z^k is the exact arc-space error derived
    from :meth:`~ncadmm.admm.Trajectory.errors`, one :func:`row_blocks`
    block at a time.
    """
    if np.shape(xerr) != (len(traj),):
        raise ValueError(f"xerr has shape {np.shape(xerr)}; the trajectory needs "
                         f"({len(traj)},), one entry per iterate")
    am = build_arc_matrices(traj.graph)
    gates = np.empty(traj.n_iter, dtype=bool)
    for rows in row_blocks(traj.n_iter, traj.graph.n_arcs):
        e_z = derive_ez_block(traj.errors(rows), am)
        e_z *= e_z
        norms = np.sqrt(e_z.reshape(len(e_z), -1).sum(axis=1))
        gates[rows] = norms <= xerr[rows.start + 1:rows.stop + 1]
    return gates


def audit_contraction(traj: Trajectory, ref: ReferencePoint, report: TheoryReport) -> ContractionAudit:
    """Check the certified contraction and primal bounds along a trajectory.

    Iterations are checked only where the gate holds and both condition
    flags are true; ratio checks additionally skip steps whose norms both
    sit below the 1e-14 floor.  The gate is :func:`error_gates`, which
    makes this an offline audit (it needs the reference point).
    """
    if ref.beta_star.shape != (traj.graph.n_arcs, traj.xs.shape[2]):
        raise ValueError("trajectory and reference point have mismatched shapes")
    gnorm = gnorm_series(traj, ref)
    xerr = x_err_series(traj, ref)
    gates = error_gates(traj, xerr)

    skipped = (gnorm[:-1] < _RATIO_FLOOR) & (gnorm[1:] < _RATIO_FLOOR)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(skipped, np.nan, gnorm[1:] / gnorm[:-1])

    checked = gates & report.conditions_hold

    # an infinite primal-bound coefficient (squared condition violated)
    # yields inf/nan slack entries; they are never checked
    with np.errstate(invalid="ignore", over="ignore"):
        x_bound_slack = report.x_bound_coeff * gnorm[:-1] - xerr[1:] ** 2
    return ContractionAudit(
        ratios=ratios,
        gates=gates,
        skipped=skipped,
        checked=checked,
        x_bound_slack=x_bound_slack,
        contraction_violated=checked & ~skipped & (ratios > report.contraction_factor + _AUDIT_TOL),
        x_bound_violated=checked & (x_bound_slack < -_AUDIT_TOL),
    )


@dataclass(frozen=True)
class SteadyStateResult:
    tail_mean: float
    bound_sqrt: float
    bound_stated: float
    holds: bool


def steady_state_check(
    traj: Trajectory,
    ref: ReferencePoint,
    sigma_e: float,
    g: Graph,
) -> SteadyStateResult:
    """Tail error of a constant-norm-noise run against both steady bounds.

    ``sigma_e`` is the constant stacked error norm ||e_x^k||_2 of the run.
    The tail mean averages ||x^k - x*|| over the final 10% of iterations;
    ``holds`` compares it to the square-root bound, and both bounds are
    reported regardless.  Rejects trajectories shorter than ten times the
    pre-floor transient (runs that converged outright are accepted as is).
    """
    xerr = x_err_series(traj, ref)
    n_total = xerr.shape[0]
    tail_len = max(1, n_total // 10)
    tail_mean = float(np.mean(xerr[-tail_len:]))
    bound_sqrt = math.sqrt(g.max_degree) * sigma_e
    bound_stated = g.max_degree * sigma_e
    converged_outright = tail_mean < 1e-10
    if not converged_outright:
        below = np.nonzero(xerr <= 2.0 * tail_mean)[0]
        if below.size == 0 or n_total < 10 * int(below[0]):
            raise ValueError(
                "trajectory too short: the error has not settled at its floor "
                "for at least 90% of the run"
            )
    return SteadyStateResult(
        tail_mean=tail_mean,
        bound_sqrt=bound_sqrt,
        bound_stated=bound_stated,
        holds=converged_outright or tail_mean <= bound_sqrt,
    )


def edc_metric(traj: Trajectory, x_central: np.ndarray) -> np.ndarray:
    """Mean over nodes of ||x_i^k - x_c|| / ||x_c|| per iteration, in :func:`row_blocks` blocks."""
    x_central = np.asarray(x_central, dtype=float)
    denom = float(np.linalg.norm(x_central))
    if denom <= 0.0:
        raise ValueError("centralized estimate has zero norm; the metric is undefined")
    # a whole (N, n) operand, as in gnorm_series
    x_c = np.tile(x_central, (traj.xs.shape[1], 1))
    out = np.empty(len(traj))
    for rows in row_blocks(len(traj), traj.xs.shape[1]):
        d = traj.xs[rows] - x_c
        d *= d
        per_node = sum_last_axis(d)  # (rows, N)
        np.sqrt(per_node, out=per_node)
        per_node /= denom
        out[rows] = per_node.mean(axis=1)
    return out
