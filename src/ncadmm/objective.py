"""The stacked quadratic objective of distributed least-squares estimation.

Node i holds f_i(x) = 0.5 * ||y_i - M_i x||^2 with design M_i and
observation y_i.  :class:`ObjectiveSet` stacks the N locals on axis 0 of
its designs, observations, Gram matrices and normal-equation right-hand
sides, and carries what the solvers and the convergence certificates need:
stacked gradients, the aggregate strong-convexity / gradient-Lipschitz
moduli (min/max of the local Gram eigenvalues, since the stacked Hessian is
block diagonal) and the centralized solution of the pooled normal
equations.  :func:`make_problem` draws every node in one pass, from the
substreams (seed, problem-domain, tag, i).

Only the quadratic instance is implemented; a general smooth strongly
convex local would need an inner solver for the x-update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import fold_key, fold_lanes, polar_normals, uniforms

_PROBLEM_DOMAIN = 2
_TAG_DESIGN = 0
_TAG_TRUE_X = 1
_TAG_OBS_NOISE = 2
_TAG_SINGULAR = 3

DESIGN_KINDS = ("gaussian", "well_conditioned")


@dataclass(frozen=True, eq=False)
class ObjectiveSet:
    """The stacked objective sum_i f_i; every array stacks the nodes on axis 0.

    m_f = min_i lambda_min(gram_i) (clipped at 0), M_f = max_i
    lambda_max(gram_i); the block-diagonal stacked Hessian makes these the
    aggregate strong convexity and gradient Lipschitz constants.
    """

    designs: np.ndarray       # (N, m, n)
    observations: np.ndarray  # (N, m)
    grams: np.ndarray         # (N, n, n) = M_i.T @ M_i
    rhs: np.ndarray           # (N, n)    = M_i.T @ y_i
    m_f: float
    M_f: float

    @classmethod
    def from_data(cls, designs, observations) -> "ObjectiveSet":
        designs = np.asarray(designs, dtype=float)
        observations = np.asarray(observations, dtype=float)
        if designs.ndim != 3 or observations.shape != designs.shape[:2]:
            raise ValueError(
                f"designs {designs.shape} and observations {observations.shape} do not match"
            )
        if not designs.shape[0]:
            raise ValueError("need at least one local objective")
        transposed = designs.transpose(0, 2, 1)
        grams = transposed @ designs
        eigs = np.linalg.eigvalsh(grams)
        return cls(designs=designs, observations=observations, grams=grams,
                   rhs=(transposed @ observations[..., None])[..., 0],
                   m_f=float(max(eigs[:, 0].min(), 0.0)), M_f=float(eigs[:, -1].max()))

    @property
    def n_nodes(self) -> int:
        return self.designs.shape[0]

    @property
    def dim(self) -> int:
        return self.designs.shape[2]

    def gradient_stack(self, x_nodes: np.ndarray) -> np.ndarray:
        """Per-node gradients gram_i x_i - rhs_i for an (N, n) iterate block."""
        x_nodes = np.asarray(x_nodes, dtype=float)
        if x_nodes.shape != self.rhs.shape:
            raise ValueError(f"expected x of shape {self.rhs.shape}, got {x_nodes.shape}")
        return (self.grams @ x_nodes[..., None])[..., 0] - self.rhs

    def centralized_solution(self) -> np.ndarray:
        """Minimizer of the pooled problem: solve (sum gram_i) x = sum rhs_i.

        Raises when the aggregate Gram is singular; the result is checked to
        satisfy the pooled normal equations to 1e-10 relative.
        """
        # cumsum adds the nodes in order; a reduction over axis 0 may pair them
        gram = self.grams.cumsum(axis=0)[-1]
        rhs = self.rhs.cumsum(axis=0)[-1]
        try:
            x = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError as err:
            raise ValueError("aggregate Gram matrix is singular") from err
        scale = max(1.0, float(np.linalg.norm(rhs)))
        residual = float(np.linalg.norm(gram @ x - rhs))
        if residual > 1e-10 * scale:
            raise ValueError(
                f"centralized solve too ill-conditioned: residual {residual:.3e}"
            )
        return x


def make_problem(
    n_nodes: int,
    dim: int,
    obs_noise_var: float,
    design_kind: str,
    seed: int,
) -> tuple[ObjectiveSet, np.ndarray]:
    """Generate an estimation instance: y_i = M_i @ true_x + obs_noise_i.

    gaussian          M_i and true_x entries i.i.d. standard normal.
    well_conditioned  M_i = orthogonal @ diag(s) with s uniform in [1, 2],
                      so every local Gram has eigenvalues in [1, 4] and the
                      aggregate strong-convexity modulus is at least 1.

    Observation noise is N(0, obs_noise_var * I), drawn once here: it is part
    of the instance, unlike the per-iteration communication error.
    Deterministic in ``seed``.
    """
    if design_kind not in DESIGN_KINDS:
        raise ValueError(f"unknown design kind {design_kind!r}; expected one of {DESIGN_KINDS}")
    if n_nodes < 1 or dim < 1:
        raise ValueError("n_nodes and dim must be positive")
    if obs_noise_var < 0.0:
        raise ValueError("obs_noise_var must be nonnegative")

    true_x = polar_normals(fold_key(seed, (_PROBLEM_DOMAIN, _TAG_TRUE_X)), dim)
    nodes = np.arange(n_nodes)
    designs = polar_normals(fold_lanes(seed, (_PROBLEM_DOMAIN, _TAG_DESIGN), nodes),
                            dim * dim).reshape(n_nodes, dim, dim)
    if design_kind == "well_conditioned":
        q, r = np.linalg.qr(designs)
        # canonical orthogonal factors
        q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
        s = 1.0 + uniforms(fold_lanes(seed, (_PROBLEM_DOMAIN, _TAG_SINGULAR), nodes), dim)
        designs = q * s[:, None, :]
    noise = float(np.sqrt(obs_noise_var)) * polar_normals(
        fold_lanes(seed, (_PROBLEM_DOMAIN, _TAG_OBS_NOISE), nodes), dim)
    return ObjectiveSet.from_data(designs, designs @ true_x + noise), true_x
