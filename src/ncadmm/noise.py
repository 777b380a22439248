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
lanes keep the scheme fully vectorizable without changing any draw.

Error vectors are keyed by (seed, trial, cell, node, iteration), so the two
solver engines and both noise-placement modes replay the identical error
realization, and Monte Carlo trials can run concurrently without shared
state.  Because every lane is a pure function of its key, a draw over many
iterations at once (an iteration array in :func:`lane_states` and
:func:`sample_error_block`) holds exactly the values of the per-iteration
draws; the engines use that to draw state-independent error in chunks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


def derive_seed(seed: int, *coords) -> int:
    """A child seed for an independent keyed substream."""
    return fold_key(seed, coords)


def _mix_u64(z: np.ndarray) -> np.ndarray:
    """Vectorized finalizer, identical to :func:`_mix` on uint64 arrays."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _raw_block(states: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Vectorized u64 outputs for broadcastable state/counter arrays."""
    z = states.astype(np.uint64) + (counters.astype(np.uint64) + np.uint64(1)) * np.uint64(_GOLDEN)
    return _mix_u64(z)


def _uniform_block(states: np.ndarray, counters: np.ndarray) -> np.ndarray:
    return (_raw_block(states, counters) >> np.uint64(11)) * 2.0 ** -53


def keyed_uniforms(seed: int, coords, count: int) -> np.ndarray:
    """``count`` uniforms in [0, 1) from the substream (seed, coords)."""
    state = np.array(fold_key(seed, coords), dtype=np.uint64)
    return _uniform_block(state, np.arange(count, dtype=np.uint64))


def polar_normals(states, count: int) -> np.ndarray:
    """Standard normals for one or many substreams via the polar transform.

    ``states`` is a scalar or (L,) array of substream states; the result has
    shape (count,) or (L, count).  Lane l, position t is a pure function of
    (states[l], t).
    """
    scalar_in = np.asarray(states).ndim == 0
    states_arr = np.atleast_1d(np.asarray(states, dtype=np.uint64))
    lanes = states_arr.shape[0]
    pairs = (count + 1) // 2
    out = np.zeros((lanes, 2 * pairs))
    out_even = out[:, 0::2]
    out_odd = out[:, 1::2]
    st = states_arr[:, None]                      # (L, 1)
    pair_idx = np.arange(pairs, dtype=np.uint64)  # (P,)
    pending = np.ones((lanes, pairs), dtype=bool)
    for attempt in range(_MAX_POLAR_ROUNDS):
        base = np.uint64(2) * (np.uint64(attempt) * np.uint64(pairs) + pair_idx)
        u = 2.0 * _uniform_block(st, base) - 1.0
        v = 2.0 * _uniform_block(st, base + np.uint64(1)) - 1.0
        s = u * u + v * v
        accept = pending & (s > 0.0) & (s < 1.0)
        if accept.any():
            s_acc = s[accept]
            f = np.sqrt(-2.0 * np.log(s_acc) / s_acc)
            out_even[accept] = u[accept] * f
            out_odd[accept] = v[accept] * f
            pending &= ~accept
        if not pending.any():
            break
    else:
        raise RuntimeError("polar sampling failed to accept after many rounds")
    result = out[:, :count]
    return result[0] if scalar_in else result


def keyed_normals(seed: int, coords, count: int) -> np.ndarray:
    """``count`` standard normals from the substream (seed, coords)."""
    return polar_normals(np.uint64(fold_key(seed, coords)), count)


@dataclass(frozen=True)
class RandomStream:
    """Substream coordinates: (seed, trial, cell, node, iteration).

    ``cell`` indexes the (c, sigma_e) sweep cell so the cells of one trial
    consume independent substreams.
    """

    seed: int
    trial: int = 0
    cell: int = 0
    node: int = 0
    iteration: int = 0

    def at(self, **coords) -> "RandomStream":
        return replace(self, **coords)

    def state(self) -> int:
        return fold_key(self.seed, (_NOISE_DOMAIN, self.trial, self.cell,
                                    self.node, self.iteration))


def lane_states(stream: RandomStream, nodes: np.ndarray,
                iteration: int | np.ndarray) -> np.ndarray:
    """Per-node substream states, vectorized over node and iteration.

    For an integer ``iteration`` the result has shape (N,) and entry i equals
    ``fold_key(seed, (noise-domain, trial, cell, nodes[i], iteration))``.
    For a 1-D array of K iterations it has shape (K, N), and row k equals
    the call at ``iteration[k]``.  The node and iteration fold steps run on
    uint64 arrays, everything else on exact Python integers.
    """
    h = _mix((int(stream.seed) + _GOLDEN) & _MASK)
    for pos, c in enumerate((_NOISE_DOMAIN, stream.trial, stream.cell)):
        h = _mix(h ^ _mix(((pos + 1) * _GOLDEN + int(c)) & _MASK))
    node_term = np.uint64((4 * _GOLDEN) & _MASK) + np.asarray(nodes, dtype=np.uint64)
    h_arr = _mix_u64(np.uint64(h) ^ _mix_u64(node_term))
    iters = np.asarray(iteration, dtype=np.uint64)
    iter_mixed = _mix_u64(np.uint64((5 * _GOLDEN) & _MASK) + iters.reshape(-1))
    return _mix_u64(h_arr ^ iter_mixed[:, None]).reshape(iters.shape + h_arr.shape)


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

    def with_sigma(self, sigma_e: float) -> "NoiseModel":
        return replace(self, sigma_e=sigma_e)


def sample_error(model: NoiseModel, x: np.ndarray, stream: RandomStream) -> np.ndarray:
    """One error vector for the value ``x`` at the stream's coordinates."""
    x = np.asarray(x, dtype=float)
    block = sample_error_block(model, x[None, :],
                               stream, stream.iteration, nodes=np.array([stream.node]))
    return block[0]


def sample_error_block(
    model: NoiseModel,
    x_nodes: np.ndarray,
    stream: RandomStream,
    iteration: int | np.ndarray,
    nodes: np.ndarray | None = None,
) -> np.ndarray:
    """Error vectors for all rows of ``x_nodes`` (shape (N, n)) at once.

    Row i uses the substream (seed, trial, cell, nodes[i], iteration), so the
    block is exactly the stack of per-node :func:`sample_error` draws.  With
    a 1-D array of K iterations the result has shape (K, N, n), and slice k
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

    if nodes is None:
        nodes = np.arange(n_rows)
    normals = polar_normals(lane_states(stream, nodes, iteration).reshape(-1), dim)
    if model.kind == "gaussian":
        return (model.sigma_e * normals).reshape(shape)
    # fixed_norm: normalize each row to sigma_e exactly
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    # an all-zero draw has probability zero; fall back to a fixed direction
    safe = np.where(norms > 0.0, norms, 1.0)
    directions = np.where(norms > 0.0, normals / safe, _unit_first_axis(dim))
    return (model.sigma_e * directions).reshape(shape)


def _unit_first_axis(dim: int) -> np.ndarray:
    e = np.zeros(dim)
    e[0] = 1.0
    return e


def derive_ez(e_x_stacked: np.ndarray, am) -> np.ndarray:
    """Arc-space error e_z = 0.5 * m_plus.T @ e_x, applied blockwise.

    ``e_x_stacked`` is the node-major stack (length N*n); the result is the
    arc-major stack (length 2E*n).
    """
    e_x = np.asarray(e_x_stacked, dtype=float)
    n_nodes = am.n_nodes
    if e_x.size % n_nodes != 0:
        raise ValueError(f"stacked length {e_x.size} is not a multiple of N={n_nodes}")
    dim = e_x.size // n_nodes
    e_z = 0.5 * am.apply_mplus_t(e_x.reshape(n_nodes, dim))
    return e_z.reshape(-1)


def derive_ez_block(e_x_nodes: np.ndarray, am) -> np.ndarray:
    """Blockwise e_z for one or many (N, n) error blocks: (..., 2E, n)."""
    return 0.5 * am.apply_mplus_t(np.asarray(e_x_nodes, dtype=float))
