"""An exact affine oracle for the consensus iteration, independent of both engines.

With quadratic local objectives and an error realization given in advance,
one iteration is an affine map of the stacked node state (x, alpha).  With
H = blockdiag(gram_i + 2c d_i I), Q = (D + Adj) (x) I and
L = (D - Adj) (x) I, both lifted node-major:

``analysis_faithful``
    x+ = H^-1 (b - alpha + c Q (x + e_k)),  alpha+ = alpha + c L x+

``broadcast``
    x+ = H^-1 (b - alpha + c (D x + Adj (x + e_k))),
    alpha+ = alpha + c (D x+ - Adj (x+ + e_{k+1}))

The operators are built from ``obj.grams``, ``obj.rhs`` and ``g.edges``
only, densely, and nothing is imported from ``ncadmm.admm``, so a match
checks either engine against the algebra rather than against the other
engine.  Dense side 2Nn keeps this to small graphs (N <= 50 at n = 3).
"""

from __future__ import annotations

import numpy as np


def operators(g, obj, c: float):
    """(H, D, Adj, b): the node-major (Nn, Nn) operators and the stacked rhs."""
    n_nodes, dim = obj.rhs.shape
    adj = np.zeros((n_nodes, n_nodes))
    i, j = np.asarray(g.edges).T
    adj[i, j] = adj[j, i] = 1.0
    eye = np.eye(dim)
    deg = np.kron(np.diag(adj.sum(axis=1)), eye)
    blocks = np.einsum("ij,iab->iajb", np.eye(n_nodes), obj.grams)
    h = blocks.reshape(n_nodes * dim, n_nodes * dim) + 2.0 * c * deg
    return h, deg, np.kron(adj, eye), obj.rhs.reshape(-1)


def replay(g, obj, c: float, mode: str, errors: np.ndarray):
    """(xs, alphas): x^0..x^K and alpha^0..alpha^{K-1} of the K steps driven by ``errors``.

    Starts from x = alpha = 0.  ``errors[k]`` is the (N, n) error on the
    messages carrying iterate k, so K rows drive K steps in either
    placement; alpha^K, which broadcast would form from e^K, is not formed.
    Any ``mode`` other than "analysis_faithful" is read as broadcast.
    """
    h, deg, adj, b = operators(g, obj, c)
    h_inv, q, lap = np.linalg.inv(h), deg + adj, deg - adj
    faithful = mode == "analysis_faithful"
    e = errors.reshape(len(errors), -1)
    x, alpha = np.zeros_like(b), np.zeros_like(b)
    xs, alphas = [x], []
    for k in range(len(errors)):
        if k:  # alpha^k, from the messages of x^k
            alpha = alpha + c * (lap @ x if faithful else deg @ x - adj @ (x + e[k]))
        alphas.append(alpha)
        if faithful:
            x = h_inv @ (b - alpha + c * (q @ (x + e[k])))
        else:
            x = h_inv @ (b - alpha + c * (deg @ x + adj @ (x + e[k])))
        xs.append(x)
    shape = obj.rhs.shape
    return np.reshape(xs, (-1, *shape)), np.reshape(alphas, (-1, *shape))


def transition(g, obj, c: float) -> np.ndarray:
    """The noiseless map's linear part A on (x, alpha), side 2Nn; both placements share it."""
    h, deg, adj, _ = operators(g, obj, c)
    h_inv = np.linalg.inv(h)
    ax = np.hstack([c * h_inv @ (deg + adj), -h_inv])
    return np.vstack([ax, np.hstack([np.zeros_like(h), np.eye(len(h))]) + c * (deg - adj) @ ax])


def gnorm_rate(g, obj, c: float) -> float:
    """rho_G, the largest one-step ratio of the squared G-norm under the noiseless map.

    In deviation coordinates (x~, w~) from the fixed point, with the arc
    dual beta = Mminus^T w (so alpha = 2 L w), the map is

        x~+ = H^-1 (c Q x~ - 2 L w~),   w~+ = w~ + (c/2) x~+,

    and the squared G-norm c ||z - z*||^2 + ||beta - beta*||^2 / c is the
    quadratic form of G = blockdiag((c/2) Q, (2/c) L), because
    Mplus Mplus^T = 2Q and Mminus Mminus^T = 2L.  G's null space (L's
    consensus directions and, on a bipartite graph, Q's null vector) is
    carried into itself, where the norm is zero, so both blocks are
    restricted to G's range; rho_G is the largest generalized eigenvalue
    of (A^T G A, G) there.
    """
    h, deg, adj, _ = operators(g, obj, c)
    q, lap = deg + adj, deg - adj
    h_inv = np.linalg.inv(h)
    ax = np.hstack([c * h_inv @ q, -2.0 * h_inv @ lap])
    a = np.vstack([ax, np.hstack([np.zeros_like(h), np.eye(len(h))]) + 0.5 * c * ax])
    zero = np.zeros_like(h)
    g_form = np.block([[0.5 * c * q, zero], [zero, (2.0 / c) * lap]])
    weights, basis = np.linalg.eigh(g_form)
    keep = weights > 1e-10 * weights.max()
    basis = basis[:, keep] / np.sqrt(weights[keep])
    return float(np.linalg.eigvalsh(basis.T @ a.T @ g_form @ a @ basis).max())


def exact_rate(g, obj, c: float) -> float:
    """rho(A) over the modes other than the n unit ones (the dual's consensus direction).

    The dual sum is invariant (1^T L = 0) and zero from the zero start, so
    the unit modes are never excited; the rest set the asymptotic rate.
    """
    eig = np.linalg.eigvals(transition(g, obj, c))
    order = np.argsort(np.abs(eig - 1.0))
    dim = obj.rhs.shape[1]
    unit, rest = eig[order[:dim]], eig[order[dim:]]
    if np.max(np.abs(unit - 1.0)) > 1e-8:
        raise ValueError(f"expected {dim} unit eigenvalues, nearest are {unit}")
    return float(np.max(np.abs(rest)))


def quantizer_point(g, obj, c: float, delta: float, steps: int = 100):
    """The consensus value y of the quantized analysis_faithful iteration, or None.

    At a fixed point the dual update forces consensus x_i = y, every node
    sends q(y) = delta * round(y / delta) (half away from zero), and the
    duals sum to zero; summing the x-update over the nodes, with
    sum_i d_i = 2E, leaves one n-dimensional equation

        (sum_i gram_i + 4cE I) y = sum_i rhs_i + 4cE q(y).

    Solved by plain iteration from the centralized solution x_c; q is
    piecewise constant, so None is returned unless an iterate repeats
    exactly within ``steps``.
    """
    gram, rhs = obj.grams.sum(axis=0), obj.rhs.sum(axis=0)
    shift = 4.0 * c * len(g.edges)
    lhs = gram + shift * np.eye(len(rhs))
    y = np.linalg.solve(gram, rhs)
    for _ in range(steps):
        t = y / delta
        q = delta * (np.sign(t) * np.floor(np.abs(t) + 0.5))
        y_next = np.linalg.solve(lhs, rhs + shift * q)
        if np.array_equal(y_next, y):
            return y
        y = y_next
    return None


def noise_input(g, obj, c: float):
    """(f, B): the analysis_faithful map is s+ = A s + f + B e on s = (x, alpha).

    From the recursion, f = (H^-1 b, c L H^-1 b) and B = (c H^-1 Q, c L c H^-1 Q).
    """
    h, deg, adj, rhs = operators(g, obj, c)
    lap = deg - adj
    f_x = np.linalg.solve(h, rhs)
    b_x = c * np.linalg.solve(h, deg + adj)
    return np.concatenate([f_x, c * lap @ f_x]), np.vstack([b_x, c * lap @ b_x])


def mean_square_curve(g, obj, c: float, noise_var: float, n_iter: int, x_star):
    """E||x_k - x*||^2 for k = 0..n_iter of the analysis_faithful run from x = alpha = 0.

    Error independent across nodes, entries and iterations, with covariance
    ``noise_var`` * I per message: the state's mean and covariance propagate
    as m+ = A m + f and P+ = A P A^T + noise_var B B^T from m = P = 0, and
    E||x_k - x*||^2 = ||m_x - x*||^2 + trace(P_x).  Broadcast is not
    covered: its state also carries e_{k+1}.
    """
    a = transition(g, obj, c)
    f, b = noise_input(g, obj, c)
    side = len(f) // 2
    drive = noise_var * (b @ b.T)
    m, p = np.zeros(len(f)), np.zeros((len(f), len(f)))
    out = np.empty(n_iter + 1)
    for k in range(n_iter + 1):
        d = m[:side] - np.reshape(x_star, -1)
        out[k] = d @ d + np.trace(p[:side, :side])
        m = a @ m + f
        p = a @ p @ a.T + drive
    return out


def steady_covariance(g, obj, c: float, noise_var: float, doublings: int = 64):
    """The steady covariance P of the analysis_faithful state (x, alpha), side 2Nn.

    Error independent across nodes, entries and iterations, with covariance
    ``noise_var`` * I per message, enters through :func:`noise_input`'s B,
    so P solves the Stein equation P = A P A^T + noise_var B B^T.  A's n
    unit modes (x = 1 (x) u, alpha_i = -gram_i u; left vectors
    (0, 1 (x) v)) are projected out: B has no component on them, since
    1^T L = 0.  P is then the sum over k of noise_var A^k B B^T (A^k)^T,
    built by Smith doubling until A^(2^j) is below 1e-20.
    Broadcast is not covered: its state also carries e_{k+1}.
    """
    n_nodes, dim = obj.rhs.shape
    _, b = noise_input(g, obj, c)
    units = np.kron(np.ones((n_nodes, 1)), np.eye(dim))
    right = np.vstack([units, -obj.grams.reshape(-1, dim)])
    left = np.vstack([np.zeros_like(units), units])
    a_k = transition(g, obj, c) - right @ np.linalg.solve(left.T @ right, left.T)
    p = noise_var * (b @ b.T)
    for _ in range(doublings):
        p = p + a_k @ p @ a_k.T
        a_k = a_k @ a_k
        if np.max(np.abs(a_k)) < 1e-20:
            return p
    raise ValueError(f"A^(2^j) did not fall below 1e-20 in {doublings} doublings")
