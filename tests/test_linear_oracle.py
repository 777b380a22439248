"""Both engines, in both placements, against the exact affine oracle of ``linear_oracle``.

The oracle replays each run's recorded error realization through dense
algebra built from the graph's edges and the local Gram matrices alone.
Broadcast's final dual alpha^K consumes e^K, the error on the message of
x^K, which the record holds as its row K, so the whole record, alpha^K
included, is compared.
"""

import numpy as np
import pytest

from linear_oracle import exact_rate, quantizer_point, replay
from ncadmm.admm import (ANALYSIS_FAITHFUL, BROADCAST, reference_point, run_decentralized,
                         run_matrix_form, x_err_series)
from ncadmm.analysis import optimize_delta
from ncadmm.noise import NoiseModel, RandomStream
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
    assert relative_gap(traj.alphas, alphas) < 1e-12


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
