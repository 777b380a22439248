"""Both engines, in both placements, against the exact affine oracle of ``linear_oracle``.

The oracle replays each run's recorded error realization through dense
algebra built from the graph's edges and the local Gram matrices alone.
The duals alpha^0..alpha^{K-1}, which the record does not keep, are
derived from it by the per-node engine's own operations and compared too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linear_oracle import (exact_rate, gnorm_rate, mean_square_curve, noise_input,
                           quantizer_point, replay, steady_covariance)
from test_admm import derive_alphas
from ncadmm.analysis import gnorm_series
from ncadmm.admm import (ANALYSIS_FAITHFUL, BROADCAST, reference_point, run_decentralized,
                         run_matrix_form, x_err_series)
from ncadmm.analysis import optimize_delta, steady_state_check
from ncadmm.config import ExperimentConfig, GraphConfig, ProblemConfig
from ncadmm.experiment import trial_seeds
from ncadmm.noise import NoiseModel, RandomStream, quantizer_error
from ncadmm.objective import make_problem
from ncadmm.topology import build_arc_matrices, gen_connected_graph, spectral_summary

KINDS = [NoiseModel.none(), NoiseModel.gaussian(1e-2), NoiseModel.fixed_norm(1e-2),
         NoiseModel.quantizer(1e-3)]
MAX_ITER = 100


def relative_gap(got, exact):
    return float(np.max(np.abs(got - exact)) / np.max(np.abs(exact)))


@pytest.fixture(scope="module", params=[(20, 0.3), (50, 0.1)], ids=["N20", "N50"])
def instance(request):
    n_nodes, rho = request.param
    g = gen_connected_graph(n_nodes, rho, seed=41)
    obj, _ = make_problem(n_nodes, 3, 1e-3, "well_conditioned", seed=42)
    return g, obj


@pytest.mark.parametrize("engine", [ANALYSIS_FAITHFUL, BROADCAST, "matrix_form"])
@pytest.mark.parametrize("model", KINDS, ids=lambda m: m.kind)
def test_engines_equal_the_affine_map(instance, model, engine):
    g, obj = instance
    c = 0.5
    stream = RandomStream(seed=43, trial=1, cell=2)
    if engine == "matrix_form":
        traj = run_matrix_form(g, obj, c, model, MAX_ITER, stream)
    else:
        traj = run_decentralized(g, obj, c, model, engine, MAX_ITER, stream)
    errors = traj.errors(slice(None))
    mode = BROADCAST if engine == BROADCAST else ANALYSIS_FAITHFUL
    xs, alphas = replay(g, obj, c, mode, errors)
    assert relative_gap(traj.xs, xs) < 1e-12
    assert relative_gap(derive_alphas(traj, mode), alphas) < 1e-12


@pytest.mark.parametrize("mode", [ANALYSIS_FAITHFUL, BROADCAST])
def test_noise_input_drives_the_replay(instance, mode):
    """t+ = T t + f + B e, from t_0 = (0, 0) or (0, 0, e_0), steps through the replay's x and alpha."""
    g, obj = instance
    c, side = 0.5, obj.rhs.size
    errors = np.random.default_rng(44).normal(scale=1e-2, size=(31, *obj.rhs.shape))
    xs, alphas = replay(g, obj, c, mode, errors)
    t_map, f, b = noise_input(g, obj, c, mode)
    states = [np.zeros(len(f))]
    if mode == BROADCAST:
        states[0][2 * side:] = errors[0].reshape(-1)
    for e in (errors[1:] if mode == BROADCAST else errors[:-1]):
        states.append(t_map @ states[-1] + f + b @ e.reshape(-1))
    states = np.reshape(states, (31, -1, *obj.rhs.shape))
    assert relative_gap(states[:, 0], xs[:31]) < 1e-12
    assert relative_gap(states[:, 1], alphas) < 1e-12


def test_noise_input_rejects_an_unknown_placement(instance):
    g, obj = instance
    with pytest.raises(ValueError, match="unknown placement mode 'broadcst'"):
        noise_input(g, obj, 0.5, "broadcst")


@pytest.mark.parametrize("seed", range(4))
def test_exact_rate_is_the_measured_noiseless_rate(seed):
    """rho(A) over the non-unit modes against ||x^K - x*|| / ||x^{K-1} - x*||.

    N=20, rho=0.3, c = 2 m_f / max(sigma_+^2, sigma_+).  The per-step ratio
    approaches rho(A) as the faster modes die out, slowly where the next
    mode is close (seed 1: 0.9459 against 0.9435): at K=300 the four seeds
    sit 1e-5 to 1.8e-3 below rho(A), while ||x^K - x*|| is still above
    1e-10 of ||x*||, six decades above rounding.  The certificate's squared G-norm
    factor must not undercut the exact squared rate.
    """
    g = gen_connected_graph(20, 0.3, seed=seed)
    obj, _ = make_problem(20, 3, 1e-3, "well_conditioned", seed=seed + 100)
    spec = spectral_summary(build_arc_matrices(g))
    sp = spec.sigma_max_mplus
    c = 2.0 * obj.m_f / max(sp**2, sp)
    rate = exact_rate(g, obj, c)
    traj = run_decentralized(g, obj, c, NoiseModel.none(), ANALYSIS_FAITHFUL, 300,
                             RandomStream(seed=1), record="light")
    xerr = x_err_series(traj, reference_point(g, obj))
    assert xerr[-1] > 1e-10 * xerr[0]
    assert abs(xerr[-1] / xerr[-2] - rate) < 2.5e-3
    _, delta = optimize_delta(spec, obj.m_f, obj.M_f, c)
    assert rate**2 <= 1.0 / (1.0 + delta)


# Rounding in a measured ratio stays near 1e-8 while the G-norm is above
# 1e-10 of its start: the deviation is then 1e-5 of x*, and beta*'s
# least-squares error is about 1e-13 of it.
RATE_TOL = 1e-6


@settings(max_examples=60, deadline=None)
@given(n_nodes=st.integers(6, 16), rho=st.floats(0.3, 0.7), seed=st.integers(0, 2**16),
       fraction=st.floats(0.01, 1.0))
def test_certificate_bounds_the_exact_gnorm_factor(n_nodes, rho, seed, fraction):
    """rho(A)^2 <= rho_G <= the certified factor, and no noiseless step beats rho_G.

    c = fraction * 2 m_f / max(sigma_+^2, sigma_+), where both certificate
    conditions hold.  rho_G is the worst one-step ratio of the squared
    G-norm over all states, so every measured ratio of a noiseless run
    (K=300, while the G-norm stays above 1e-10 of its start) lies under it,
    and a sound certificate lies above it.  Failing the upper check is a
    certificate defect, not a tolerance to widen.
    """
    g = gen_connected_graph(n_nodes, rho, seed=seed)
    obj, _ = make_problem(n_nodes, 3, 1e-3, "well_conditioned", seed=seed + 1)
    spec = spectral_summary(build_arc_matrices(g))
    sp = spec.sigma_max_mplus
    c = fraction * 2.0 * obj.m_f / max(sp**2, sp)
    rho_g = gnorm_rate(g, obj, c)
    _, delta = optimize_delta(spec, obj.m_f, obj.M_f, c)
    assert exact_rate(g, obj, c) ** 2 <= rho_g + RATE_TOL
    assert 1.0 / (1.0 + delta) >= rho_g - RATE_TOL
    traj = run_decentralized(g, obj, c, NoiseModel.none(), ANALYSIS_FAITHFUL, 300,
                             RandomStream(seed=1), record="light")
    gnorm = gnorm_series(traj, reference_point(g, obj))
    above = gnorm[:-1] > 1e-10 * gnorm[0]
    assert np.all(gnorm[1:][above] / gnorm[:-1][above] <= rho_g + RATE_TOL)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("n_nodes, rho, max_iter", [(20, 0.3, 3000), (50, 0.1, 6000)],
                         ids=["N20", "N50"])
def test_quantizer_settles_at_its_closed_form_point(n_nodes, rho, max_iter, seed):
    """The quantized run ends at consensus on y, within the bias bound of x_c.

    c = m_f / max(sigma_+^2, sigma_+), the audit workload's choice, and
    delta = 1e-3.  G (y - x_c) = 4cE (q(y) - y) with |q(y) - y| <= delta / 2
    per entry gives ||y - x_c|| <= 2cE delta sqrt(n) / lambda_min(G),
    G = sum_i gram_i.  The last ten iterates equal y to 1e-12 at every node.
    """
    g = gen_connected_graph(n_nodes, rho, seed=seed)
    obj, _ = make_problem(n_nodes, 3, 1e-3, "well_conditioned", seed=seed + 100)
    sp = spectral_summary(build_arc_matrices(g)).sigma_max_mplus
    c = obj.m_f / max(sp**2, sp)
    delta = 1e-3
    y = quantizer_point(g, obj, c, delta)
    assert y is not None
    traj = run_decentralized(g, obj, c, NoiseModel.quantizer(delta), ANALYSIS_FAITHFUL,
                             max_iter, RandomStream(seed=1), record="light")
    assert np.max(np.abs(traj.xs[-10:] - y)) < 1e-12
    gram = obj.grams.sum(axis=0)
    x_c = np.linalg.solve(gram, obj.rhs.sum(axis=0))
    bound = 2.0 * c * len(g.edges) * delta * np.sqrt(3) / np.linalg.eigvalsh(gram)[0]
    assert np.linalg.norm(y - x_c) <= bound


def test_audit_workload_plateau_is_the_quantizer_point():
    """The `audit` workload's x_err plateau is sqrt(N) ||y - x_c||, seed 0.

    The instance is rebuilt here as the benchmark builds it: N=200,
    rho=0.04, well_conditioned, delta=1e-4, c = m_f / max(sigma_+^2, sigma_+),
    graph and problem seeds from ``trial_seeds``.  At consensus on y every
    node sits ||y - x_c|| from x_c, so the stacked distance is sqrt(N) times
    that: 1.2294291e-4, reached to 1e-8 from k of about 3300 on.  At the
    workload's K=1000 the series is still 27% above it.
    """
    cfg = ExperimentConfig(seed=0, trials=1, graph=GraphConfig(n_nodes=200, rho=0.04),
                           problem=ProblemConfig(dim=3, obs_noise_var=1e-3,
                                                 design_kind="well_conditioned"))
    graph_seed, problem_seed = trial_seeds(cfg, 0)
    g = gen_connected_graph(200, 0.04, graph_seed)
    obj, _ = make_problem(200, 3, 1e-3, "well_conditioned", problem_seed)
    sp = spectral_summary(build_arc_matrices(g)).sigma_max_mplus
    c = obj.m_f / max(sp**2, sp)
    y = quantizer_point(g, obj, c, 1e-4)
    assert y is not None
    traj = run_decentralized(g, obj, c, NoiseModel.quantizer(1e-4), ANALYSIS_FAITHFUL,
                             6000, RandomStream(seed=0), record="light")
    ref = reference_point(g, obj)
    xerr = x_err_series(traj, ref)
    plateau = np.sqrt(200) * np.linalg.norm(y - ref.x_central)
    assert plateau == pytest.approx(1.2294291e-4, rel=1e-7)
    assert xerr[-1] == pytest.approx(plateau, rel=1e-8)
    assert xerr[1000] > 1.25 * plateau


def test_broadcast_quantizer_ends_at_a_fixed_point_or_an_exact_cycle():
    """Broadcast under the quantizer settles, or repeats x^K exactly with a period <= 64.

    At a fixed point the dual update forces D x = Adj q(x), and the
    x-update then gives gram_i x_i + alpha_i = rhs_i.  well_conditioned
    problems (seed + 1), c = m_f / max(sigma_+^2, sigma_+), delta = 1e-3,
    K = 5000.  Six instances settle with both residuals <= 3.6e-15 (three
    of them also repeat, at amplitudes below the 1e-12 tolerance); N=50
    seed 0 ends on an exact period-8 cycle whose residuals are 6.1e-4 and
    1.4e-5.
    """
    ends = set()
    for n_nodes, rho, seed in [(20, 0.3, 0), (20, 0.3, 1), (20, 0.3, 2), (20, 0.3, 3),
                               (50, 0.1, 0), (50, 0.1, 1), (50, 0.1, 3)]:
        g = gen_connected_graph(n_nodes, rho, seed)
        obj, _ = make_problem(n_nodes, 3, 1e-3, "well_conditioned", seed + 1)
        am = build_arc_matrices(g)
        sp = spectral_summary(am).sigma_max_mplus
        c = obj.m_f / max(sp**2, sp)
        traj = run_decentralized(g, obj, c, NoiseModel.quantizer(1e-3), BROADCAST, 5000,
                                 RandomStream(seed=0), record="light")
        x = traj.xs[-1]
        consensus = g.degrees[:, None] * x - am.neighbor_sum(x + quantizer_error(x, 1e-3))
        alpha = derive_alphas(traj, BROADCAST)[-1]
        primal = np.einsum("nij,nj->ni", obj.grams, x) + alpha - obj.rhs
        if max(np.max(np.abs(consensus)), np.max(np.abs(primal))) <= 1e-12:
            ends.add("fixed point")
        elif any(np.array_equal(x, traj.xs[-1 - p]) for p in range(1, 65)):
            ends.add("cycle")
        else:
            pytest.fail(f"N={n_nodes} seed {seed}: neither settled nor cycling by K=5000")
    assert ends == {"fixed point", "cycle"}


def steady_instance():
    """Criterion 6's shape: N=20, rho=0.3, seeds 300/7000, c = 2 m_f / max(sigma_+^2, sigma_+)."""
    g = gen_connected_graph(20, 0.3, seed=300)
    obj, _ = make_problem(20, 3, 1e-3, "well_conditioned", seed=7000)
    sp = spectral_summary(build_arc_matrices(g)).sigma_max_mplus
    return g, obj, 2.0 * obj.m_f / max(sp**2, sp)


def check_tail_at_floor(model, noise_var, sigma, mode=ANALYSIS_FAITHFUL):
    """One K=10,000 run's tail mean of ||x_k - x*||^2 brackets trace(P_x).

    Over the last 9,000 iterations, the mean in 20 batches must hold
    trace(P_x) at the 99% t level (19 degrees of freedom), and
    sqrt(trace(P_x)) must sit under the d_max sigma bound that
    ``steady_state_check`` holds the tail to.  In broadcast, x's part on the
    unit modes is a random walk (see ``steady_covariance``), so the tail is
    of ||x_k - x* + 1 (x) G^-1 S_k||^2 instead, S_k the dual sum
    sum_i alpha_i^k and G = sum_i gram_i, over x^1000..x^9999 (the duals
    ``derive_alphas`` gives stop at alpha^{K-1}).
    """
    g, obj, c = steady_instance()
    p = steady_covariance(g, obj, c, noise_var, mode)
    floor = np.trace(p[:60, :60])
    ref = reference_point(g, obj)
    traj = run_decentralized(g, obj, c, model, mode, 10_000, RandomStream(seed=0),
                             record="light")
    if mode == ANALYSIS_FAITHFUL:
        tail = x_err_series(traj, ref)[-9000:] ** 2
    else:
        walk = np.linalg.solve(obj.grams.sum(axis=0), derive_alphas(traj, mode).sum(axis=1).T)
        dev = traj.xs[:-1] - ref.x_central + walk.T[:, None, :]
        tail = np.sum(dev[-9000:] ** 2, axis=(1, 2))
    batches = tail.reshape(20, -1).mean(axis=1)
    half_width = 2.861 * batches.std(ddof=1) / np.sqrt(20)
    assert abs(batches.mean() - floor) <= half_width
    res = steady_state_check(traj, ref, sigma, g)
    assert np.sqrt(floor) <= res.bound_stated
    print(f"\n[steady floor, {mode}, {model.kind}] sqrt(trace P_x) = {np.sqrt(floor):.4e}: "
          f"{np.sqrt(floor) / res.bound_sqrt:.4f} of bound_sqrt, "
          f"{np.sqrt(floor) / res.bound_stated:.4f} of bound_stated")


def test_fixed_norm_tail_sits_at_the_steady_floor():
    """Criterion 6's shape: the measured floor is trace(P_x), far under both corollary bounds.

    fixed_norm error of per-node norm sigma/sqrt(N) has covariance
    sigma^2/(N n) I per node.  sqrt(trace(P_x)) is about 5% of
    sqrt(d_max) sigma and 1.7% of d_max sigma.
    """
    sigma = 1e-2
    check_tail_at_floor(NoiseModel.fixed_norm(sigma / np.sqrt(20)), sigma**2 / 60, sigma)


def test_gaussian_tail_sits_at_the_steady_floor():
    """The same floor under gaussian error: Sigma = sigma_e^2 I per node, sigma_e = sigma/sqrt(N n).

    Its stacked norm is sigma in mean square only, so ``steady_state_check``
    reads sigma as the error scale.
    """
    sigma = 1e-2
    check_tail_at_floor(NoiseModel.gaussian(sigma / np.sqrt(60)), sigma**2 / 60, sigma)


@pytest.mark.parametrize("model", [NoiseModel.fixed_norm(1e-2 / np.sqrt(20)),
                                   NoiseModel.gaussian(1e-2 / np.sqrt(60))],
                         ids=lambda m: m.kind)
def test_broadcast_tail_sits_at_the_floor_off_the_consensus_walk(model):
    """Broadcast's x has no floor, but x + 1 (x) G^-1 S does: trace(P_x), 0.84 of analysis_faithful's.

    Both kinds carry sigma^2/(N n) I per node, sigma = 1e-2, as in the two
    tests above.  Over 10,000 iterations the walk itself reaches a squared
    stacked norm of 1.4e-4 to 3.8e-4, about a hundred times the floor.
    """
    check_tail_at_floor(model, 1e-4 / 60, 1e-2, BROADCAST)


def check_curve_against_monte_carlo(mode):
    """The propagated E||x_k - x*||^2 against 200 Monte Carlo runs, k = 0..200; returns it.

    Criterion 6's instance with gaussian error of Sigma = sigma_e^2 I per
    node, sigma_e = 1e-2 / sqrt(N n).  At k = 0 every run starts at x = 0,
    so the mean is exact; at every later k the 200-run mean lies within 4.5
    standard errors of the curve (Bonferroni over 200 points puts the
    family level near 1e-3).
    """
    g, obj, c = steady_instance()
    ref = reference_point(g, obj)
    sigma_e, n_iter, runs = 1e-2 / np.sqrt(60), 200, 200
    exact = mean_square_curve(g, obj, c, sigma_e**2, n_iter, ref.x_central, mode)
    squares = np.stack([
        x_err_series(run_decentralized(g, obj, c, NoiseModel.gaussian(sigma_e), mode, n_iter,
                                       RandomStream(seed=0, trial=t), record="light"), ref) ** 2
        for t in range(runs)])
    mean = squares.mean(axis=0)
    std_err = squares.std(axis=0, ddof=1) / np.sqrt(runs)
    assert mean[0] == pytest.approx(exact[0], rel=1e-12)
    assert np.all(np.abs(mean[1:] - exact[1:]) <= 4.5 * std_err[1:])
    print(f"\n[mean-square curve, {mode}] Monte Carlo / exact in "
          f"[{np.min(mean / exact):.4f}, {np.max(mean / exact):.4f}]")
    return exact


def test_gaussian_mean_square_curve_matches_monte_carlo():
    """Analysis_faithful: the curve falls from ||x*||^2 = 116 through the transient into
    the floor (within 2x of it from k = 95)."""
    check_curve_against_monte_carlo(ANALYSIS_FAITHFUL)


def test_broadcast_mean_square_curve_matches_monte_carlo():
    """Broadcast: past the transient the curve climbs by the walk's rate per iteration.

    The dual sum S moves by -c sum_i d_i e_i per message, so G^-1 S, and
    with it x's consensus shift, adds N c^2 sigma_e^2 (sum_i d_i^2) tr(G^-2)
    = 1.77e-7 to E||x_k - x*||^2 per iteration.  At k = 200 the curve's
    step is within 6e-4 of it (the transient's remainder); by k = 400, 1e-8.
    """
    g, obj, c = steady_instance()
    exact = check_curve_against_monte_carlo(BROADCAST)
    g_inv = np.linalg.inv(obj.grams.sum(axis=0))
    rate = 20 * c**2 * (1e-4 / 60) * np.sum(g.degrees.astype(float) ** 2) * np.trace(g_inv @ g_inv)
    assert exact[-1] - exact[-2] == pytest.approx(rate, rel=1e-3)
