"""Per-node quadratic objectives for distributed least-squares estimation.

Node i holds f_i(x) = 0.5 * ||y_i - M_i x||^2 with design M_i and
observation y_i.  The module carries everything the solvers and the
convergence certificates need: gradients, the aggregate strong-convexity /
gradient-Lipschitz moduli (min/max of the local Gram eigenvalues, since the
stacked Hessian is block diagonal), and the centralized reference solution
of the pooled normal equations.  The engines build the per-node x-update
solve themselves from each local's Gram matrix.

The interface would admit other smooth strongly convex locals, but only the
quadratic instance is implemented; a general local would need an inner
solver for the x-update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import keyed_normals, keyed_uniforms

_PROBLEM_DOMAIN = 2
_TAG_DESIGN = 0
_TAG_TRUE_X = 1
_TAG_OBS_NOISE = 2
_TAG_SINGULAR = 3

DESIGN_KINDS = ("gaussian", "well_conditioned")


@dataclass(frozen=True, eq=False)
class QuadraticLocal:
    """One node's term 0.5 * ||y - M x||^2 with precomputed normal-equation data."""

    design: np.ndarray       # (m, n)
    observation: np.ndarray  # (m,)
    gram: np.ndarray         # (n, n) = M.T @ M
    rhs: np.ndarray          # (n,)   = M.T @ y

    @classmethod
    def from_data(cls, design, observation) -> "QuadraticLocal":
        design = np.asarray(design, dtype=float)
        observation = np.asarray(observation, dtype=float)
        if design.ndim != 2 or observation.shape != (design.shape[0],):
            raise ValueError(
                f"design {design.shape} and observation {observation.shape} do not match"
            )
        return cls(design=design, observation=observation,
                   gram=design.T @ design, rhs=design.T @ observation)

    @property
    def dim(self) -> int:
        return self.design.shape[1]

    def value(self, x: np.ndarray) -> float:
        r = self.observation - self.design @ x
        return 0.5 * float(r @ r)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected x of shape ({self.dim},), got {x.shape}")
        return self.gram @ x - self.rhs

    def moduli(self) -> tuple[float, float]:
        """(smallest, largest) Gram eigenvalue: local strong convexity and
        gradient Lipschitz constants."""
        w = np.linalg.eigvalsh(self.gram)
        return float(max(w[0], 0.0)), float(w[-1])


@dataclass(frozen=True, eq=False)
class ObjectiveSet:
    """The stacked objective sum_i f_i with aggregate moduli.

    m_f = min_i lambda_min(gram_i), M_f = max_i lambda_max(gram_i);
    the block-diagonal stacked Hessian makes these the aggregate strong
    convexity and gradient Lipschitz constants.
    """

    locals: tuple[QuadraticLocal, ...]
    dim: int
    m_f: float
    M_f: float

    @classmethod
    def from_locals(cls, locals_) -> "ObjectiveSet":
        locals_ = tuple(locals_)
        if not locals_:
            raise ValueError("need at least one local objective")
        dim = locals_[0].dim
        if any(loc.dim != dim for loc in locals_):
            raise ValueError("all locals must share the variable dimension")
        lo, hi = zip(*(loc.moduli() for loc in locals_))
        return cls(locals=locals_, dim=dim, m_f=min(lo), M_f=max(hi))

    @property
    def n_nodes(self) -> int:
        return len(self.locals)

    def gradient_stack(self, x_nodes: np.ndarray) -> np.ndarray:
        """Per-node gradients for an (N, n) iterate block."""
        return np.stack([loc.gradient(x_nodes[i]) for i, loc in enumerate(self.locals)])

    def centralized_solution(self) -> np.ndarray:
        """Minimizer of the pooled problem: solve (sum gram_i) x = sum rhs_i.

        Raises when the aggregate Gram is singular; the result is checked to
        satisfy the pooled normal equations to 1e-10 relative.
        """
        gram = sum(loc.gram for loc in self.locals)
        rhs = sum(loc.rhs for loc in self.locals)
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

    true_x = keyed_normals(seed, (_PROBLEM_DOMAIN, _TAG_TRUE_X), dim)
    sigma_obs = float(np.sqrt(obs_noise_var))
    locs = []
    for i in range(n_nodes):
        m = keyed_normals(seed, (_PROBLEM_DOMAIN, _TAG_DESIGN, i), dim * dim).reshape(dim, dim)
        if design_kind == "well_conditioned":
            q, r = np.linalg.qr(m)
            q = q * np.sign(np.diag(r))  # canonical orthogonal factor
            s = 1.0 + keyed_uniforms(seed, (_PROBLEM_DOMAIN, _TAG_SINGULAR, i), dim)
            m = q @ np.diag(s)
        noise = sigma_obs * keyed_normals(seed, (_PROBLEM_DOMAIN, _TAG_OBS_NOISE, i), dim)
        y = m @ true_x + noise
        locs.append(QuadraticLocal.from_data(m, y))
    return ObjectiveSet.from_locals(locs), true_x

