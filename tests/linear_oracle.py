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
engine.  Dense side 2Nn, 3Nn for broadcast's error-driven state, keeps this
to small graphs (N <= 50 at n = 3).
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


def noise_input(g, obj, c: float, mode: str = "analysis_faithful"):
    """(T, f, B): the error-driven map t+ = T t + f + B e, white in e, of the placement.

    analysis_faithful: t_k = (x^k, alpha^k), side 2Nn, T = A, and from the
    recursion f = (H^-1 b, c L H^-1 b) and B = (c H^-1 Q, c L c H^-1 Q).

    broadcast: e_k enters x^{k+1} through c H^-1 Adj e_k and alpha^k through
    -c Adj e_k, so (x, alpha) sees an MA(1) input.  The state
    t_k = (x^k, alpha^k, e_k), side 3Nn, carries it:
    T = [[A, B0], [0, 0]], f = (f, 0), B = (B1, I), with
    B0 = (c H^-1 Adj, c L c H^-1 Adj) and B1 = (0, -c Adj); t_0 = (0, 0, e_0),
    since alpha^0 = 0 carries no error.  Any other ``mode`` is a ValueError.
    """
    h, deg, adj, rhs = operators(g, obj, c)
    lap = deg - adj
    a = transition(g, obj, c)
    f_x = np.linalg.solve(h, rhs)
    f = np.concatenate([f_x, c * lap @ f_x])
    if mode == "analysis_faithful":
        b_x = c * np.linalg.solve(h, deg + adj)
        return a, f, np.vstack([b_x, c * lap @ b_x])
    if mode != "broadcast":
        raise ValueError(f"unknown placement mode {mode!r}")
    b_x = c * np.linalg.solve(h, adj)
    zero = np.zeros_like(h)
    t = np.block([[a, np.vstack([b_x, c * lap @ b_x])], [zero, zero, zero]])
    return t, np.concatenate([f, np.zeros_like(f_x)]), np.vstack([zero, -c * adj, np.eye(len(h))])


def mean_square_curve(g, obj, c: float, noise_var: float, n_iter: int, x_central,
                      mode: str = "analysis_faithful"):
    """E||x_k - x*||^2 for k = 0..n_iter of the run from x = alpha = 0 in ``mode``.

    x* is ``x_central`` at every node.

    Error independent across nodes, entries and iterations, with covariance
    ``noise_var`` * I per message: the state of :func:`noise_input` has mean
    and covariance m+ = T m + f and P+ = T P T^T + noise_var B B^T, from
    m = 0 and P = 0 (broadcast: noise_var I on its e_0 block), and
    E||x_k - x*||^2 = ||m_x - x*||^2 + trace(P_x).
    """
    a, f, b = noise_input(g, obj, c, mode)
    side = obj.rhs.size
    drive = noise_var * (b @ b.T)
    x_star = np.tile(x_central, g.n_nodes)
    m, p = np.zeros(len(f)), np.zeros((len(f), len(f)))
    p[2 * side:, 2 * side:] = noise_var * np.eye(len(f) - 2 * side)
    out = np.empty(n_iter + 1)
    for k in range(n_iter + 1):
        d = m[:side] - x_star
        out[k] = d @ d + np.trace(p[:side, :side])
        m = a @ m + f
        p = a @ p @ a.T + drive
    return out


def steady_covariance(g, obj, c: float, noise_var: float, mode: str = "analysis_faithful",
                      doublings: int = 64):
    """The steady covariance P of the state of :func:`noise_input` off A's n unit modes.

    Error independent across nodes, entries and iterations, with covariance
    ``noise_var`` * I per message, enters through B, so P solves the Stein
    equation P = T P T^T + noise_var B B^T on the part of the state off the
    unit modes (x = 1 (x) u, alpha_i = -gram_i u, e = 0; left vectors
    (0, 1 (x) v, 0)), whose projector Pi is built here.  P is the sum over
    k of noise_var (T - Pi)^k B B^T ((T - Pi)^k)^T, built by Smith doubling
    until (T - Pi)^(2^j) is below 1e-20.

    In analysis_faithful B has no component on the unit modes (1^T L = 0),
    so P is the whole state's steady covariance.  In broadcast each message
    moves the dual sum S = sum_i alpha_i by -c sum_i d_i e_i, a random walk
    that shifts x along the unit modes by 1 (x) u with G u = -S,
    G = sum_i gram_i; x has no steady floor, B is replaced by B - Pi B, and
    P is the covariance of x + 1 (x) G^-1 S.
    """
    n_nodes, dim = obj.rhs.shape
    a_k, _, b = noise_input(g, obj, c, mode)
    units = np.kron(np.ones((n_nodes, 1)), np.eye(dim))
    zero = np.zeros((len(a_k) - 2 * len(units), dim))
    right = np.vstack([units, -obj.grams.reshape(-1, dim), zero])
    left = np.vstack([np.zeros_like(units), units, zero])
    unit_part = right @ np.linalg.solve(left.T @ right, left.T)
    a_k = a_k - unit_part
    if mode == "broadcast":
        b = b - unit_part @ b
    p = noise_var * (b @ b.T)
    for _ in range(doublings):
        p = p + a_k @ p @ a_k.T
        a_k = a_k @ a_k
        if np.max(np.abs(a_k)) < 1e-20:
            return p
    raise ValueError(f"(T - Pi)^(2^j) did not fall below 1e-20 in {doublings} doublings")
