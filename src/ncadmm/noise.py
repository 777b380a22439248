"""Additive computation-error models with a deterministic randomness contract.

Every random draw in the package is a pure function of an integer seed plus
integer coordinates, so trajectories are bit-reproducible and independent of
call order, thread scheduling, or numpy version.  The generator is SplitMix64
run in counter mode:

    state   = fold(seed, coords)             (64-bit hash of the coordinates)
    u64(t)  = mix(state + (t+1) * GOLDEN)    (t-th raw output, no carried state)
    unif(t) = (u64(t) >> 11) * 2**-53        (double in [0, 1))

Gaussian variates come from the Marsaglia polar transform on that uniform
stream: pair p of a draw takes attempts a = 0, 1, ... where attempt a reads
uniforms at counters 2*(a*P + p) and 2*(a*P + p) + 1 (P = number of pairs),
maps them to u, v in [-1, 1), and accepts when 0 < s = u*u + v*v < 1 giving
the two normals u*f, v*f with f = sqrt(-2 ln(s) / s).  Per-pair counter
lanes keep the scheme fully vectorizable without changing any draw: each
round draws uniforms only for the pairs still pending, over every lane at
once, and drops the pairs it accepts.

Array coordinates (node, iteration) fold in one uint64 array step each
(:func:`fold_lanes`, equal to :func:`fold_key` entry by entry); the error
draws and the problem generator share that step.

Error vectors are keyed by (seed, trial, cell, node, iteration), so the two
solver engines and both noise-placement modes replay the identical error
realization, and Monte Carlo trials can run concurrently without shared
state.  Because every lane is a pure function of its key, a draw over many
iterations at once (an iteration array in :func:`lane_states` and
:func:`sample_error_block`) holds exactly the values of the per-iteration
draws; the engines use that to draw state-independent error in chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Domain tag for the error-model draws (other modules reserve their own).
_NOISE_DOMAIN = 1

_MAX_POLAR_ROUNDS = 128

NOISE_KINDS = ("none", "gaussian", "quantizer", "fixed_norm")


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def fold_key(seed: int, coords) -> int:
    """Hash (seed, coords) into a 64-bit substream state.

    Coordinates fold in sequentially at distinct positions, so tuples of
    different length or content map to different states (up to the usual
    64-bit collision odds).
    """
    h = _mix((int(seed) + _GOLDEN) & _MASK)
    for pos, c in enumerate(coords):
        h = _mix(h ^ _mix(((pos + 1) * _GOLDEN + int(c)) & _MASK))
    return h


def _mix_u64(z: np.ndarray) -> np.ndarray:
    """Vectorized finalizer, identical to :func:`_mix` on uint64 arrays."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _uniform_block(states: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) for broadcastable uint64 state/counter arrays."""
    raw = _mix_u64(states + (counters + np.uint64(1)) * np.uint64(_GOLDEN))
    return (raw >> np.uint64(11)) * 2.0 ** -53


def fold_lanes(seed: int, coords, *lanes) -> np.ndarray:
    """Substream states over arrays of trailing coordinates.

    ``coords`` folds as in :func:`fold_key`, on exact Python integers; each
    lane array then folds at the next position in one uint64 array step,
    and the lanes broadcast: entry [k, j] of ``fold_lanes(seed, coords, a,
    b[:, None])`` equals ``fold_key(seed, coords + (a[j], b[k]))``.
    """
    h = np.uint64(fold_key(seed, coords))
    for pos, lane in enumerate(lanes, start=len(coords)):
        term = np.uint64(((pos + 1) * _GOLDEN) & _MASK) + np.asarray(lane, dtype=np.uint64)
        h = _mix_u64(h ^ _mix_u64(term))
    return h


def uniforms(states, count: int) -> np.ndarray:
    """``count`` uniforms in [0, 1) per substream state: ``states.shape + (count,)``."""
    states = np.asarray(states, dtype=np.uint64)
    return _uniform_block(states[..., None], np.arange(count, dtype=np.uint64))


def keyed_uniforms(seed: int, coords, count: int) -> np.ndarray:
    """``count`` uniforms in [0, 1) from the substream (seed, coords)."""
    return uniforms(fold_key(seed, coords), count)


def polar_normals(states, count: int) -> np.ndarray:
    """Standard normals for any array of substream states via the polar transform.

    The result has shape ``states.shape + (count,)``, and entry [..., t] is
    a pure function of (states[...], t).  The pairs still pending are kept
    as a list of flat indices lane * P + pair; each round draws uniforms
    only for them, writes the accepted ones into place and drops them from
    the list.
    """
    states = np.asarray(states, dtype=np.uint64)
    flat = states.reshape(-1)
    pairs = (count + 1) // 2
    out = np.empty((flat.size * pairs, 2))
    pending = np.arange(out.shape[0])
    for attempt in range(_MAX_POLAR_ROUNDS):
        st = flat[pending // pairs]
        base = (2 * (attempt * pairs + pending % pairs)).astype(np.uint64)
        u = 2.0 * _uniform_block(st, base) - 1.0
        v = 2.0 * _uniform_block(st, base + np.uint64(1)) - 1.0
        s = u * u + v * v
        accept = (s > 0.0) & (s < 1.0)
        s = s[accept]
        f = np.sqrt(-2.0 * np.log(s) / s)
        done = pending[accept]
        out[done, 0] = u[accept] * f
        out[done, 1] = v[accept] * f
        pending = pending[~accept]
        if not pending.size:
            return out.reshape(states.shape + (2 * pairs,))[..., :count]
    raise RuntimeError("polar sampling failed to accept after many rounds")


def keyed_normals(seed: int, coords, count: int) -> np.ndarray:
    """``count`` standard normals from the substream (seed, coords)."""
    return polar_normals(np.uint64(fold_key(seed, coords)), count)


@dataclass(frozen=True)
class RandomStream:
    """Substream coordinates: (seed, trial, cell).

    ``cell`` indexes the (c, sigma_e) sweep cell so the cells of one trial
    consume independent substreams.  The node and iteration coordinates of
    an error draw are the row index and the ``iteration`` argument of
    :func:`sample_error_block`.
    """

    seed: int
    trial: int = 0
    cell: int = 0


def lane_states(stream: RandomStream, nodes: np.ndarray,
                iteration: int | np.ndarray) -> np.ndarray:
    """Per-node substream states, vectorized over node and iteration.

    For an integer ``iteration`` the result has shape (N,) and entry i equals
    ``fold_key(seed, (noise-domain, trial, cell, nodes[i], iteration))``.
    For a 1-D array of K iterations it has shape (K, N), and row k equals
    the call at ``iteration[k]``.
    """
    return fold_lanes(stream.seed, (_NOISE_DOMAIN, stream.trial, stream.cell),
                      nodes, np.expand_dims(iteration, -1))


@dataclass(frozen=True)
class NoiseModel:
    """Additive error on exchanged iterates: x_hat = x + e.

    kinds:
      none        e = 0
      gaussian    components i.i.d. N(0, sigma_e^2)
      quantizer   e = delta * round(x / delta) - x, half away from zero
                  (deterministic in x, ignores the stream)
      fixed_norm  random direction scaled so ||e||_2 = sigma_e exactly
    """

    kind: str
    sigma_e: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; expected one of {NOISE_KINDS}")
        if self.sigma_e < 0.0 or self.delta < 0.0:
            raise ValueError("noise parameters must be nonnegative")

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls(kind="none")

    @classmethod
    def gaussian(cls, sigma_e: float) -> "NoiseModel":
        return cls(kind="gaussian", sigma_e=sigma_e)

    @classmethod
    def quantizer(cls, delta: float) -> "NoiseModel":
        return cls(kind="quantizer", delta=delta)

    @classmethod
    def fixed_norm(cls, sigma_e: float) -> "NoiseModel":
        return cls(kind="fixed_norm", sigma_e=sigma_e)


def sample_error_block(
    model: NoiseModel,
    x_nodes: np.ndarray,
    stream: RandomStream,
    iteration: int | np.ndarray,
) -> np.ndarray:
    """Error vectors for all rows of ``x_nodes`` (shape (N, n)) at once.

    Row i uses the substream (seed, trial, cell, i, iteration).  With a 1-D
    array of K iterations the result has shape (K, N, n), and slice k
    equals the call at ``iteration[k]``; the quantizer does not depend on
    the iteration, so its slices repeat.
    """
    x_nodes = np.asarray(x_nodes, dtype=float)
    n_rows, dim = x_nodes.shape
    shape = np.shape(iteration) + x_nodes.shape
    if model.kind == "none":
        return np.zeros(shape)
    if model.kind == "quantizer":
        if model.delta == 0.0:
            return np.zeros(shape)
        t = x_nodes / model.delta
        quantized = model.delta * (np.sign(t) * np.floor(np.abs(t) + 0.5))
        return np.broadcast_to(quantized - x_nodes, shape).copy()

    normals = polar_normals(lane_states(stream, np.arange(n_rows), iteration), dim)
    if model.kind == "gaussian":
        return model.sigma_e * normals
    # fixed_norm: normalize each row to sigma_e exactly
    norms = np.linalg.norm(normals, axis=-1, keepdims=True)
    # an all-zero draw has probability zero; fall back to a fixed direction
    safe = np.where(norms > 0.0, norms, 1.0)
    directions = np.where(norms > 0.0, normals / safe, _unit_first_axis(dim))
    return model.sigma_e * directions


def _unit_first_axis(dim: int) -> np.ndarray:
    e = np.zeros(dim)
    e[0] = 1.0
    return e


def derive_ez_block(e_x_nodes: np.ndarray, am) -> np.ndarray:
    """Arc-space error e_z = 0.5 * m_plus.T @ e_x for (..., N, n) blocks: (..., 2E, n)."""
    e_x = np.asarray(e_x_nodes, dtype=float)
    if e_x.ndim < 2 or e_x.shape[-2] != am.n_nodes:
        raise ValueError(f"error block of shape {e_x.shape} needs N={am.n_nodes} node rows")
    return 0.5 * am.apply_mplus_t(e_x)
