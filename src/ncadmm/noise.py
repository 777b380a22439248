"""Additive computation-error models with a deterministic randomness contract.

Every random draw in the package is a pure function of an integer seed plus
integer coordinates, so trajectories are bit-reproducible and independent of
call order and thread scheduling.  The integer streams are the same under
any numpy version or platform; the floats made from them (``log`` in the
polar transform) follow the numpy build.  The generator is SplitMix64 run
in counter mode:

    state   = fold(seed, coords)             (64-bit hash of the coordinates)
    u64(t)  = mix(state + (t+1) * GOLDEN)    (t-th raw output, no carried state)
    unif(t) = (u64(t) >> 11) * 2**-53        (double in [0, 1))

Gaussian variates come from the Marsaglia polar transform on that uniform
stream: pair p of a draw takes attempts a = 0, 1, ... where attempt a reads
uniforms at counters 2*(a*P + p) and 2*(a*P + p) + 1 (P = number of pairs),
maps them to u, v in [-1, 1), and accepts when 0 < s = u*u + v*v < 1 giving
the two normals u*f, v*f with f = sqrt(-2 ln(s) / s).  Per-pair counter
lanes keep the scheme fully vectorizable without changing any draw: round
0 tries every (lane, pair) slot of the grid at once and writes it whole;
each later round draws uniforms only for the pairs still pending, over
every lane at once, and drops the pairs it accepts.

Array coordinates (node, iteration) fold in one uint64 array step each
(:func:`fold_lanes`, equal to :func:`fold_key` entry by entry); the error
draws and the problem generator share that step.

Error vectors are keyed by (seed, trial, cell, node, iteration), so the two
solver engines and both noise-placement modes replay the identical error
realization, and Monte Carlo trials can run concurrently without shared
state.  Because every lane is a pure function of its key, a draw over many
iterations at once (an iteration array in :func:`lane_states` and
:func:`sample_error_block`) holds exactly the values of the per-iteration
draws; the engines use that to draw state-independent error in chunks,
and a run record to draw any block of it again.

The models act on node messages only; their arc-space image e_z is
derived in :mod:`ncadmm.analysis`.
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
    """Vectorized finalizer, identical to :func:`_mix` on uint64 arrays.

    Mixes ``z`` in place, so callers pass a freshly computed array.
    """
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _uniform_block(states: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) for broadcastable uint64 state/counter arrays."""
    raw = _mix_u64(states + (counters + np.uint64(1)) * np.uint64(_GOLDEN))
    raw >>= np.uint64(11)
    # below 2**53, so the int64 view converts exactly, and faster than uint64
    return raw.view(np.int64) * 2.0 ** -53


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


def _polar_attempt(states: np.ndarray, counters: np.ndarray):
    """One polar attempt per pair, from the uniforms at ``counters`` (..., 2 * pairs).

    Returns the candidate pairs (u*f, v*f), each viewed as one complex128
    item so that a pair moves with 1-D indexing, and the acceptance mask; a
    rejected pair holds inf or nan.  Every step works in place and rounds
    exactly as ``2u - 1``, ``u*u + v*v`` and ``sqrt(-2 ln(s) / s)`` do.
    """
    uv = _uniform_block(states, counters).reshape(-1, 2)
    uv *= 2.0
    uv -= 1.0
    u, v = uv[:, 0], uv[:, 1]
    s = u * u
    s += v * v
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.log(s)
        f *= -2.0
        f /= s
        np.sqrt(f, out=f)
    u *= f
    v *= f
    return uv.view(np.complex128)[:, 0], (s > 0.0) & (s < 1.0)


def polar_normals(states, count: int) -> np.ndarray:
    """Standard normals for any array of substream states via the polar transform.

    The result has shape ``states.shape + (count,)``, and entry [..., t] is
    a pure function of (states[...], t).  Round 0 tries every (lane, pair)
    slot at once and fills the whole grid.  The pairs it rejects are kept
    as a list of flat indices lane * P + pair, with their states and u
    counters gathered once; each later round advances the counters by one
    attempt, draws uniforms only for the pending pairs, writes the accepted
    ones into place and drops them from the list.
    """
    states = np.asarray(states, dtype=np.uint64)
    flat = states.reshape(-1)
    pairs = (count + 1) // 2
    out, accept = _polar_attempt(flat[:, None], np.arange(2 * pairs, dtype=np.uint64))
    pending = np.flatnonzero(~accept)
    lane, pair = np.divmod(pending, pairs)
    st, u_counter = flat[lane], (2 * pair).astype(np.uint64)
    for _ in range(1, _MAX_POLAR_ROUNDS):
        if not pending.size:
            break
        u_counter += np.uint64(2 * pairs)
        counters = np.stack([u_counter, u_counter + np.uint64(1)], axis=1)
        normals, accept = _polar_attempt(st[:, None], counters)
        out[pending[accept]] = normals[accept]
        keep = ~accept
        pending, st, u_counter = pending[keep], st[keep], u_counter[keep]
    if pending.size:
        raise RuntimeError("polar sampling failed to accept after many rounds")
    return out.view(np.float64).reshape(states.shape + (2 * pairs,))[..., :count]


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
                  (deterministic in x, ignores the stream; delta > 0)
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
        if self.kind == "quantizer" and self.delta == 0.0:
            raise ValueError("the quantizer needs a positive delta")

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


def quantizer_error(x: np.ndarray, delta: float) -> np.ndarray:
    """``delta * round(x / delta) - x``, rounding half away from zero.

    Entry by entry, so a block of iterates gets each iterate's error bit for
    bit.
    """
    t = x / delta
    return delta * (np.sign(t) * np.floor(np.abs(t) + 0.5)) - x


def sample_error_block(
    model: NoiseModel,
    x_nodes: np.ndarray,
    stream: RandomStream,
    iteration: int | np.ndarray,
) -> np.ndarray:
    """Error vectors for all node rows of ``x_nodes``, shape (N, n) or (K, N, n).

    Row i uses the substream (seed, trial, cell, i, iteration).  With a 1-D
    array of K iterations the result has shape (K, N, n), and slice k
    equals the call at ``iteration[k]``.  The keyed kinds read only the
    last two axes of ``x_nodes``; the quantizer takes each iterate's error,
    so a (K, N, n) block gives slice k from ``x_nodes[k]``, and one (N, n)
    iterate repeats over the iterations.
    """
    x_nodes = np.asarray(x_nodes, dtype=float)
    n_rows, dim = x_nodes.shape[-2:]
    shape = np.shape(iteration) + (n_rows, dim)
    if model.kind == "none":
        return np.zeros(shape)
    if model.kind == "quantizer":
        error = quantizer_error(x_nodes, model.delta)
        return error if error.shape == shape else np.broadcast_to(error, shape).copy()

    normals = polar_normals(lane_states(stream, np.arange(n_rows), iteration), dim)
    if model.kind == "gaussian":
        return model.sigma_e * normals
    # fixed_norm: normalize each row to sigma_e exactly; this is np.linalg.norm
    norms = np.sqrt(sum_last_axis(normals * normals))
    positive = norms > 0.0
    norms = np.where(positive, norms, 1.0)
    directions = np.empty(normals.shape)
    for j in range(dim):
        np.divide(normals[..., j], norms, out=directions[..., j])
    # an all-zero draw has probability zero; fall back to the first axis
    directions[~positive] = np.eye(dim)[0]
    directions *= model.sigma_e
    return directions


def sum_last_axis(a: np.ndarray) -> np.ndarray:
    """``np.sum(a, axis=-1)``, bit for bit, as whole-array column adds.

    numpy adds fewer than 8 trailing terms left to right, so for short rows
    the n - 1 adds over long strided columns give the same sums without a
    reduction whose inner loop is only n long; from 8 terms on numpy sums
    in unrolled partial sums, and the reduction is used as is.
    """
    if a.shape[-1] >= 8:
        return np.add.reduce(a, axis=-1)
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        out += a[..., j]
    return out
