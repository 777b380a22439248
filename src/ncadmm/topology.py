"""Communication graphs and their arc-incidence algebra.

A network of N nodes with E undirected edges is represented by :class:`Graph`,
which holds the edges as one read-only (E, 2) index array.  Every edge
contributes two directed arcs, so the arc set has size 2E.  The arc matrices
``m_plus`` / ``m_minus`` (one column per arc q = (i, j): +1 at row i, +1 / -1
at row j) tie the per-node iterates to the per-arc consensus variables:

    0.5 * m_plus @ m_plus.T  == D + W   (signless Laplacian)
    0.5 * m_minus @ m_minus.T == D - W  (standard Laplacian)

with D the degree diagonal and W the adjacency matrix.  :class:`ArcMatrices`
holds only the arcs' tail (i) and head (j) index arrays: ``m_plus.T @ x`` is
the gather ``x[tail] + x[head]``, and one ``reduceat`` over the arcs grouped
by tail gives ``m_plus @ z`` (each node sums ``z[q] + z[q ^ 1]``, arc q ^ 1
reversing arc q) and each node's neighbor sum.  All act blockwise on
n-dimensional node variables (the Kronecker lift, which leaves all singular
values unchanged).  The Laplacians come from
degrees (``bincount(tail)``) and edges; the dense matrices are built only on
request.  :func:`gen_connected_graph` draws edges by pair index, in O(E) memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .noise import fold_key, uniforms

# Domain tag separating graph-sampling randomness from every other consumer
# of the keyed RNG (see noise.fold_key).
_GRAPH_DOMAIN = 3

DEFAULT_MAX_RETRIES = 10_000


class GraphConnectivityError(RuntimeError):
    """Raised when rejection sampling fails to produce a connected graph."""


def _index_pairs(edges) -> np.ndarray:
    """A fresh (E, 2) intp copy of integer node pairs; the caller's array stays writeable."""
    pairs = np.array(edges)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"edges must have shape (E, 2), got {pairs.shape}")
    if pairs.dtype.kind not in "iu":
        raise ValueError(f"edges must be integers, got dtype {pairs.dtype}")
    return pairs.astype(np.intp, copy=False)


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected, connected, simple graph on nodes 0..n_nodes-1.

    ``edges`` is held as a read-only (E, 2) intp array, copied from the
    integer input, and must be canonical: each row (i, j) with i < j, rows
    sorted lexicographically, no duplicates.  Use :meth:`from_edges` to
    normalize arbitrary edge lists.
    """

    n_nodes: int
    edges: np.ndarray  # (E, 2)

    def __post_init__(self):
        if self.n_nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {self.n_nodes}")
        edges = _index_pairs(self.edges)
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        # report the first row out of range or not above the previous row;
        # on in-range rows, i * N + j orders as (i, j) does
        i, j = edges.T
        out_of_range = (i < 0) | (i >= j) | (j >= self.n_nodes)
        key = i * self.n_nodes + j
        bad = out_of_range | np.r_[False, key[1:] <= key[:-1]]
        if bad.any():
            first = int(bad.argmax())
            if out_of_range[first]:
                i, j = edges[first].tolist()
                raise ValueError(f"edge ({i}, {j}) is not canonical (need 0 <= i < j < N)")
            raise ValueError("edges must be sorted and unique")
        if not _is_connected(self.n_nodes, edges):
            raise ValueError("graph is not connected")

    @classmethod
    def from_edges(cls, n_nodes: int, edges) -> "Graph":
        canon = np.unique(np.sort(_index_pairs(edges), axis=1), axis=0)
        loops = canon[:, 0] == canon[:, 1]
        if loops.any():
            raise ValueError(f"self-loop at node {canon[loops.argmax(), 0]}")
        return cls(n_nodes=n_nodes, edges=canon)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_arcs(self) -> int:
        return 2 * len(self.edges)

    @cached_property
    def degrees(self) -> np.ndarray:
        return build_arc_matrices(self).degrees

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max())


@dataclass(frozen=True, eq=False)
class ArcMatrices:
    """Arc-incidence operators of a graph, held as tail/head index arrays.

    Arc q runs from ``tail[q]`` to ``head[q]`` in the canonical arc order
    (see :func:`build_arc_matrices`).
    The operators take stacked variables whose last two axes are
    (N, n) for nodes or (2E, n) for arcs; leading axes are batch axes.
    """

    n_nodes: int
    tail: np.ndarray  # (2E,)
    head: np.ndarray  # (2E,)

    @property
    def n_arcs(self) -> int:
        return self.tail.shape[0]

    @cached_property
    def degrees(self) -> np.ndarray:
        """Arcs leaving each node, which is each node's degree."""
        return np.bincount(self.tail, minlength=self.n_nodes)

    @cached_property
    def m_plus(self) -> np.ndarray:
        """Dense (N, 2E) base matrix: +1 at the tail and the head of each arc."""
        return self._dense(1.0)

    @cached_property
    def m_minus(self) -> np.ndarray:
        """Dense (N, 2E) base matrix: +1 at the tail, -1 at the head of each arc."""
        return self._dense(-1.0)

    def _dense(self, head_sign: float) -> np.ndarray:
        m = np.zeros((self.n_nodes, self.n_arcs))
        cols = np.arange(self.n_arcs)
        m[self.tail, cols] = 1.0
        m[self.head, cols] = head_sign
        return m

    @cached_property
    def signless_laplacian(self) -> np.ndarray:
        """D + W, equal to 0.5 * m_plus @ m_plus.T."""
        return self._gram(1.0)

    @cached_property
    def laplacian(self) -> np.ndarray:
        """D - W, equal to 0.5 * m_minus @ m_minus.T."""
        return self._gram(-1.0)

    def _gram(self, adjacency_sign: float) -> np.ndarray:
        m = np.zeros((self.n_nodes, self.n_nodes))
        m[self.tail, self.head] = adjacency_sign
        m[np.diag_indices(self.n_nodes)] = self.degrees
        return m

    def arc_ends(self, x_nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The gathers (x[tail], x[head]) of node-major stacked variables.

        ``x_nodes`` has shape (..., N, n); each result has shape (..., 2E, n)
        and is C-contiguous.  Each is one ``take`` of single elements over
        the flattened (N * n) node axis, which numpy copied faster than
        n-element rows at n = 3, the dimension every workload uses.
        """
        *batch, n_rows, dim = x_nodes.shape
        ends = self._flat_ends.get(dim)
        if ends is None:
            ends = self._flat_ends[dim] = tuple((rows[:, None] * dim + np.arange(dim)).reshape(-1)
                                                for rows in (self.tail, self.head))
        flat = x_nodes.reshape(*batch, n_rows * dim)
        shape = (*batch, self.n_arcs, dim)
        return tuple(flat.take(index, axis=-1).reshape(shape) for index in ends)

    @cached_property
    def _flat_ends(self) -> dict:
        """Element indices of the tail and head rows, per dimension n, built on first use."""
        return {}

    def apply_mplus_t(self, x_nodes: np.ndarray) -> np.ndarray:
        """m_plus.T @ x for node-major stacked variables.

        ``x_nodes`` has shape (..., N, n); the result has shape (..., 2E, n),
        is C-contiguous, and equals the lifted (Kronecker) matrix applied to
        the stack.
        """
        x_tail, x_head = self.arc_ends(x_nodes)
        return np.add(x_tail, x_head, out=x_tail)

    def apply_mminus_t(self, x_nodes: np.ndarray) -> np.ndarray:
        x_tail, x_head = self.arc_ends(x_nodes)
        return np.subtract(x_tail, x_head, out=x_tail)

    @cached_property
    def _by_tail(self):
        # arcs sorted stably by tail, their reverses (q ^ 1), heads and group starts;
        # reduceat needs every node to have an arc, which a connected Graph guarantees
        arcs = np.argsort(self.tail, kind="stable")
        return arcs, arcs ^ 1, self.head[arcs], np.cumsum(self.degrees) - self.degrees

    def neighbor_sum(self, x_nodes: np.ndarray) -> np.ndarray:
        """Sum of each node's neighbors' values, in ascending neighbor order."""
        _, _, heads, starts = self._by_tail
        return np.add.reduceat(x_nodes.take(heads, axis=-2), starts, axis=-2)

    def apply_mplus(self, z_arcs: np.ndarray) -> np.ndarray:
        """m_plus @ z for arc-major stacked variables (..., 2E, n)."""
        return self._node_sum(z_arcs, np.add)

    def apply_mminus(self, z_arcs: np.ndarray) -> np.ndarray:
        return self._node_sum(z_arcs, np.subtract)

    def _node_sum(self, z_arcs: np.ndarray, head_op: np.ufunc) -> np.ndarray:
        """Sum ``z[q] head_op z[q ^ 1]`` over the arcs q leaving each node."""
        arcs, reverse, _, starts = self._by_tail
        pairs = head_op(z_arcs.take(arcs, axis=-2), z_arcs.take(reverse, axis=-2))
        return np.add.reduceat(pairs, starts, axis=-2)


@dataclass(frozen=True)
class SpectralSummary:
    """Singular values of the arc matrices plus degree data.

    Values refer to the base matrices; the n-dimensional lift shares them.
    """

    sigma_max_mplus: float
    sigma_max_mminus: float
    sigma_min_nz_mminus: float
    max_degree: int


def gen_connected_graph(n_nodes: int, rho: float, seed: int) -> Graph:
    """Sample a connected graph with connectivity ratio ``rho``.

    The edge count is E = round(rho * N(N-1)/2) (half away from zero); an
    E-subset of all possible edges is drawn uniformly and resampled until
    connected.  Deterministic in ``seed``: attempt t consumes the keyed
    uniform substream (seed, graph-domain, t).

    Raises ValueError when E < N-1 (connectivity impossible) and
    GraphConnectivityError when DEFAULT_MAX_RETRIES samples are all disconnected.
    """
    if n_nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {n_nodes}")
    if not (0.0 < rho <= 1.0):
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    e_complete = n_nodes * (n_nodes - 1) // 2
    n_edges = int(np.floor(rho * e_complete + 0.5))
    if n_edges < n_nodes - 1:
        raise ValueError(
            f"rho={rho} gives {n_edges} edges; a connected graph on "
            f"{n_nodes} nodes needs at least {n_nodes - 1}"
        )

    # Partial Fisher-Yates shuffle of the pair indices, holding only moved
    # positions; pair (i, j) has row-major (lexicographic) index row_start[i] + j - i - 1.
    row_start = np.arange(n_nodes) * (2 * n_nodes - np.arange(n_nodes) - 1) // 2
    pos = np.arange(n_edges)
    for attempt in range(DEFAULT_MAX_RETRIES):
        u = uniforms(fold_key(seed, (_GRAPH_DOMAIN, attempt)), n_edges)
        chosen, moved = [], {}
        for t, r in enumerate((pos + (u * (e_complete - pos)).astype(np.int64)).tolist()):
            chosen.append(moved.get(r, r))
            moved[r] = moved.get(t, t)
        pairs = np.sort(chosen)
        i = np.searchsorted(row_start, pairs, side="right") - 1
        edges = np.stack([i, pairs - row_start[i] + i + 1], axis=1)
        try:
            return Graph(n_nodes=n_nodes, edges=edges)
        except ValueError:  # the edges are canonical, so the sample is disconnected
            continue
    raise GraphConnectivityError(
        f"no connected graph in {DEFAULT_MAX_RETRIES} samples "
        f"(N={n_nodes}, rho={rho}, E={n_edges}, seed={seed})"
    )


def _is_connected(n_nodes: int, edges: np.ndarray) -> bool:
    """Whether the (E, 2) edge array connects all ``n_nodes`` nodes.

    Min-label propagation with pointer jumping over the arcs (both
    directions of each edge).  Each node's label is a node of its own
    component and never larger than the node itself.  A round lowers the
    label of each arc tail's label to the arc head's label where that is
    smaller, then replaces every label by its label's label.  A round that
    changes nothing leaves one label per component, so the graph is
    connected exactly when every label is node 0.
    """
    tail, head = edges.reshape(-1), edges[:, ::-1].reshape(-1)
    labels = np.arange(n_nodes)
    while True:
        hooked = labels.copy()
        np.minimum.at(hooked, labels[tail], labels[head])
        hooked = hooked[hooked]
        if np.array_equal(hooked, labels):
            return not labels.any()
        labels = hooked


def build_arc_matrices(g: Graph) -> ArcMatrices:
    """Tail/head index arrays in the canonical arc order.

    The order is the graph's sorted edge order, each edge (i, j) giving arc
    (i, j) and then arc (j, i); arc 2q therefore runs from the smaller end
    of edge q, and ``tail`` is a view of ``g.edges``.
    """
    return ArcMatrices(n_nodes=g.n_nodes, tail=g.edges.reshape(-1),
                       head=g.edges[:, ::-1].reshape(-1))


def spectral_summary(am: ArcMatrices) -> SpectralSummary:
    """Singular values via eigendecomposition of the 0.5*M*M.T Gram forms.

    sigma = sqrt(2 * eigenvalue); the smallest nonzero singular value of
    m_minus is the smallest sigma strictly above 1e-9 * sigma_max.  Gram
    eigenvalues carry solver noise of order N * eps * lambda_max, which the
    square root would inflate past that filter, so eigenvalues below the
    noise floor are zeroed first.
    """
    q_eig = np.linalg.eigvalsh(am.signless_laplacian)
    l_eig = np.linalg.eigvalsh(am.laplacian)
    noise_floor = am.n_nodes * np.finfo(float).eps * max(float(l_eig[-1]), 1.0)
    l_eig = np.where(l_eig > noise_floor, l_eig, 0.0)
    sigma_max_mplus = float(np.sqrt(2.0 * max(float(q_eig[-1]), 0.0)))
    sigma_max_mminus = float(np.sqrt(2.0 * max(float(l_eig[-1]), 0.0)))
    sigmas_minus = np.sqrt(2.0 * np.clip(l_eig, 0.0, None))
    nz = sigmas_minus[sigmas_minus > 1e-9 * sigma_max_mminus]
    if nz.size == 0:
        raise ValueError("m_minus has no nonzero singular value (graph has no edges?)")
    return SpectralSummary(
        sigma_max_mplus=sigma_max_mplus,
        sigma_max_mminus=sigma_max_mminus,
        sigma_min_nz_mminus=float(nz.min()),
        max_degree=int(am.degrees.max()),
    )


def write_edge_list(g: Graph, path) -> None:
    """Write the `N E` header plus one 0-based `i j` line per edge."""
    lines = [f"{g.n_nodes} {g.n_edges}"]
    lines += [f"{i} {j}" for i, j in g.edges.tolist()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii", newline="")


def read_edge_list(path) -> Graph:
    text = Path(path).read_text(encoding="ascii").split()
    if len(text) < 2:
        raise ValueError(f"{path}: missing header")
    if not (text[0].isdigit() and text[1].isdigit()):
        raise ValueError(f"{path}: header must be two nonnegative integers `N E`, "
                         f"got {' '.join(text[:2])!r}")
    n_nodes, n_edges = int(text[0]), int(text[1])
    nums = text[2:]
    if len(nums) != 2 * n_edges:
        raise ValueError(f"{path}: expected {2 * n_edges} node indices, got {len(nums)}")
    try:
        edges = np.array(nums, dtype=np.intp).reshape(n_edges, 2)
    except OverflowError:
        raise ValueError(f"{path}: node index out of range") from None
    return Graph.from_edges(n_nodes, edges)
