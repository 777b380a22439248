import numpy as np
import pytest

from ncadmm import admm
from ncadmm.admm import (ANALYSIS_FAITHFUL, BROADCAST, gnorm_series,
                         reference_point, run_decentralized, run_matrix_form,
                         x_err_series)
from ncadmm.analysis import edc_metric, error_gates
from ncadmm.noise import NoiseModel, RandomStream, sample_error_block
from ncadmm.objective import ObjectiveSet, make_problem
from ncadmm.topology import Graph, build_arc_matrices, gen_connected_graph


def small_setup(seed=0, n_nodes=8, rho=0.4, design="well_conditioned"):
    g = gen_connected_graph(n_nodes, rho, seed=seed)
    obj, _ = make_problem(n_nodes, 3, 1e-3, design, seed=seed + 1000)
    return g, obj


def arc_history(traj):
    """The streamed arc states stacked: (zs, betas), each (K+1, 2E, n)."""
    zs, betas = zip(*traj.arc_states())
    return np.stack(zs), np.stack(betas)


class TestReferencePoint:
    def test_kkt_conditions(self):
        g, obj = small_setup(1)
        ref = reference_point(g, obj)
        am = build_arc_matrices(g)
        grad = obj.gradient_stack(ref.x_star)
        assert np.linalg.norm(grad + am.apply_mminus(ref.beta_star)) < 1e-8
        assert np.linalg.norm(am.apply_mminus_t(ref.x_star)) == 0.0
        assert np.array_equal(0.5 * am.apply_mplus_t(ref.x_star), ref.z_star)

    def test_z_star_is_consensus_on_every_arc(self):
        g, obj = small_setup(2)
        ref = reference_point(g, obj)
        assert np.allclose(ref.z_star, ref.x_central, atol=1e-14)

    def test_noiseless_observations_recover_truth(self):
        g = gen_connected_graph(6, 0.5, seed=3)
        obj, true_x = make_problem(6, 3, 0.0, "gaussian", seed=4)
        ref = reference_point(g, obj)
        assert np.allclose(ref.x_star, true_x, atol=1e-9)

    def test_beta_star_matches_dense_pseudoinverse(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        obj, _ = make_problem(3, 1, 1e-3, "gaussian", seed=5)
        ref = reference_point(g, obj)
        am = build_arc_matrices(g)
        lifted = np.kron(am.m_minus, np.eye(1))
        grad = obj.gradient_stack(ref.x_star).reshape(-1)
        expect = -np.linalg.pinv(lifted) @ grad
        assert np.allclose(ref.beta_star.reshape(-1), expect, atol=1e-10)

    def test_beta_star_in_row_space(self):
        g, obj = small_setup(6)
        ref = reference_point(g, obj)
        am = build_arc_matrices(g)
        # beta_star must be exactly representable as m_minus.T @ w: any
        # component outside the row space would leave a lstsq residual
        w, *_ = np.linalg.lstsq(am.m_minus.T, ref.beta_star, rcond=None)
        assert np.allclose(am.m_minus.T @ w, ref.beta_star, atol=1e-10)


class TestGnormDistance:
    def test_zero_at_reference(self):
        g, obj = small_setup(3)
        ref = reference_point(g, obj)
        traj = run_matrix_form(g, obj, 0.1, NoiseModel.none(), 1,
                               RandomStream(seed=1),
                               x0=ref.x_star, beta0=ref.beta_star)
        assert gnorm_series(traj, ref)[0] == 0.0

    def test_weighted_combination(self):
        g = Graph.from_edges(2, [(0, 1)])
        obj = ObjectiveSet.from_data(np.ones((2, 1, 1)), np.zeros((2, 1)))
        ref = reference_point(g, obj)
        # ||z - z*||^2 = 1, ||beta - beta*||^2 = 4 by direct construction
        traj = run_matrix_form(g, obj, 2.0, NoiseModel.none(), 1,
                               RandomStream(seed=1),
                               x0=ref.x_star + np.sqrt(0.5),
                               beta0=ref.beta_star + np.sqrt(2.0))
        assert gnorm_series(traj, ref)[0] == pytest.approx(2.0 * 1.0 + 0.5 * 4.0)

    def test_c_scaling(self):
        g, obj = small_setup(4)
        ref = reference_point(g, obj)
        for c in (0.5, 1.0, 2.0):
            traj = run_matrix_form(g, obj, c, NoiseModel.gaussian(0.1), 5,
                                   RandomStream(seed=2))
            zs, betas = arc_history(traj)
            dz = float(np.sum((zs[5] - ref.z_star) ** 2))
            db = float(np.sum((betas[5] - ref.beta_star) ** 2))
            assert gnorm_series(traj, ref)[5] == pytest.approx(c * dz + db / c)


class TestEngineEquivalence:
    def test_oracle_agreement_across_models(self):
        models = [NoiseModel.none(), NoiseModel.gaussian(1e-2),
                  NoiseModel.fixed_norm(1e-2), NoiseModel.quantizer(1e-3)]
        for i, model in enumerate(models):
            g, obj = small_setup(seed=i, design="gaussian")
            stream = RandomStream(seed=100 + i)
            td = run_decentralized(g, obj, 0.7, model, ANALYSIS_FAITHFUL, 150, stream)
            tm = run_matrix_form(g, obj, 0.7, model, 150, stream)
            assert np.max(np.abs(td.xs - tm.xs)) < 1e-10, model.kind
            assert np.max(np.abs(td.alphas - tm.alphas)) < 1e-10, model.kind
            (zd, bd), (zm, bm) = arc_history(td), arc_history(tm)
            assert np.max(np.abs(zd - zm)) < 1e-10, model.kind
            assert np.max(np.abs(bd - bm)) < 1e-10, model.kind

    def test_alpha_is_mminus_beta_along_matrix_run(self):
        g, obj = small_setup(7)
        am = build_arc_matrices(g)
        traj = run_matrix_form(g, obj, 0.4, NoiseModel.gaussian(1e-2), 60,
                               RandomStream(seed=3))
        _, betas = arc_history(traj)
        for k in (0, 15, 60):
            assert np.allclose(traj.alphas[k], am.apply_mminus(betas[k]),
                               atol=1e-10)

    def test_modes_identical_without_noise(self):
        g, obj = small_setup(8)
        stream = RandomStream(seed=4)
        a = run_decentralized(g, obj, 0.5, NoiseModel.none(), ANALYSIS_FAITHFUL, 40, stream)
        b = run_decentralized(g, obj, 0.5, NoiseModel.none(), BROADCAST, 40, stream)
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.alphas, b.alphas)

    def test_modes_differ_with_noise(self):
        g, obj = small_setup(9)
        stream = RandomStream(seed=5)
        m = NoiseModel.gaussian(1e-2)
        a = run_decentralized(g, obj, 0.5, m, ANALYSIS_FAITHFUL, 40, stream)
        b = run_decentralized(g, obj, 0.5, m, BROADCAST, 40, stream)
        assert np.max(np.abs(a.xs - b.xs)) > 1e-6

    def test_same_stream_reproducible(self):
        g, obj = small_setup(10)
        m = NoiseModel.gaussian(1e-2)
        a = run_decentralized(g, obj, 0.5, m, BROADCAST, 30, RandomStream(seed=6))
        b = run_decentralized(g, obj, 0.5, m, BROADCAST, 30, RandomStream(seed=6))
        assert np.array_equal(a.xs, b.xs)


def per_iteration_decentralized(g, obj, c, model, mode, max_iter, stream):
    """The per-node protocol drawing its error one iteration at a time."""
    degrees = g.degrees.astype(float)[:, None]
    flat_nbrs = np.concatenate([np.array(nb, dtype=np.intp) for nb in g.neighbors])
    offsets = np.concatenate([[0], np.cumsum(g.degrees[:-1])]).astype(np.intp)
    inv_ops = np.linalg.inv(obj.grams + (2.0 * c * g.degrees)[:, None, None] * np.eye(obj.dim))
    x = np.zeros((g.n_nodes, obj.dim))
    alpha = np.zeros_like(x)
    xs, e_xs = [x], []

    def nbr_sum(values):
        return np.add.reduceat(values[flat_nbrs], offsets, axis=0)

    for k in range(max_iter):
        e_k = sample_error_block(model, x, stream, k)
        x_hat = x + e_k
        own = x_hat if mode == ANALYSIS_FAITHFUL else x
        rhs = obj.rhs - alpha + c * (degrees * own + nbr_sum(x_hat))
        x_new = np.einsum("nij,nj->ni", inv_ops, rhs)
        if mode == ANALYSIS_FAITHFUL:
            reported = x_new
        else:
            reported = x_new + sample_error_block(model, x_new, stream, k + 1)
        alpha = alpha + c * (degrees * x_new - nbr_sum(reported))
        x = x_new
        xs.append(x)
        e_xs.append(e_k)
    return np.stack(xs), np.stack(e_xs)


def per_iteration_matrix_form(g, obj, c, model, max_iter, stream):
    """The stacked arc-matrix recursion drawing its error one iteration at a time."""
    am = build_arc_matrices(g)
    inv_ops = np.linalg.inv(obj.grams + (2.0 * c * g.degrees)[:, None, None] * np.eye(obj.dim))
    x = np.zeros((g.n_nodes, obj.dim))
    beta = np.zeros((g.n_arcs, obj.dim))
    xs, e_xs, zs, betas = [x], [], [0.5 * am.apply_mplus_t(x)], [beta]
    for k in range(max_iter):
        e_k = sample_error_block(model, x, stream, k)
        z_hat = 0.5 * am.apply_mplus_t(x + e_k)
        rhs = obj.rhs - am.apply_mminus(beta) + c * am.apply_mplus(z_hat)
        x = np.einsum("nij,nj->ni", inv_ops, rhs)
        beta = beta + (0.5 * c) * am.apply_mminus_t(x)
        xs.append(x)
        e_xs.append(e_k)
        zs.append(0.5 * am.apply_mplus_t(x))
        betas.append(beta)
    return np.stack(xs), np.stack(e_xs), np.stack(zs), np.stack(betas)


class TestChunkedDraws:
    """Chunked error draws replay the per-iteration loop bit for bit.

    At N=200 a chunk is 40 iterations, so 100 iterations cross two chunk
    boundaries (and broadcast's extra final draw starts a third chunk).
    """

    MODELS = [NoiseModel.gaussian(1e-2), NoiseModel.fixed_norm(1e-2)]

    @pytest.fixture(scope="class")
    def instance(self):
        g = gen_connected_graph(200, 0.05, seed=21)
        obj, _ = make_problem(200, 3, 1e-3, "well_conditioned", seed=22)
        return g, obj

    @pytest.mark.parametrize("mode", [ANALYSIS_FAITHFUL, BROADCAST])
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
    def test_decentralized_matches_per_iteration_loop(self, instance, model, mode):
        g, obj = instance
        stream = RandomStream(seed=15, trial=1, cell=2)
        traj = run_decentralized(g, obj, 0.3, model, mode, 100, stream)
        xs, e_xs = per_iteration_decentralized(g, obj, 0.3, model, mode, 100, stream)
        assert np.array_equal(traj.xs, xs)
        assert np.array_equal(traj.e_xs, e_xs)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
    def test_matrix_form_matches_per_iteration_loop(self, instance, model):
        g, obj = instance
        stream = RandomStream(seed=16, trial=1, cell=2)
        traj = run_matrix_form(g, obj, 0.3, model, 100, stream)
        xs, e_xs, zs, betas = per_iteration_matrix_form(g, obj, 0.3, model, 100, stream)
        assert np.array_equal(traj.xs, xs)
        assert np.array_equal(traj.e_xs, e_xs)
        traj_zs, traj_betas = arc_history(traj)
        assert np.array_equal(traj_zs, zs)
        assert np.array_equal(traj_betas, betas)

    @pytest.mark.parametrize("engine", [ANALYSIS_FAITHFUL, BROADCAST, "matrix"])
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
    def test_streamed_series_match_whole_block_formulas(self, instance, model, engine):
        """gnorm and the gate equal the (K+1, 2E, n) formulas they stream, bit for bit."""
        g, obj = instance
        ref = reference_point(g, obj)
        stream = RandomStream(seed=17, trial=1, cell=2)
        if engine == "matrix":
            traj = run_matrix_form(g, obj, 0.3, model, 100, stream)
        else:
            traj = run_decentralized(g, obj, 0.3, model, engine, 100, stream)
        am = build_arc_matrices(g)
        dz = 0.5 * am.apply_mplus_t(traj.xs) - ref.z_star
        steps = (0.5 * traj.c) * am.apply_mminus_t(traj.xs[1:])
        db = np.cumsum(np.concatenate([traj.beta0[None], steps]), axis=0) - ref.beta_star
        gnorm = traj.c * np.sum(dz * dz, axis=(1, 2)) + np.sum(db * db, axis=(1, 2)) / traj.c
        assert np.array_equal(gnorm_series(traj, ref), gnorm)

        e_z = 0.5 * am.apply_mplus_t(traj.e_xs)
        ez_norm = np.sqrt(np.sum(e_z * e_z, axis=(1, 2)))
        xerr = x_err_series(traj, ref)
        assert np.array_equal(error_gates(traj, xerr), ez_norm <= xerr[1:])
        # thresholds at the whole-block norm and one ulp below it pin the
        # streamed norm to that value exactly
        at = np.concatenate([[0.0], ez_norm])
        assert error_gates(traj, at).all()
        assert not error_gates(traj, np.nextafter(at, -np.inf)).any()


@pytest.mark.parametrize("mode, n_messages", [(ANALYSIS_FAITHFUL, 10), (BROADCAST, 11)])
def test_quantizer_draws_each_message_once(monkeypatch, mode, n_messages):
    """K=10 iterations carry 10 perturbed iterates, 11 in broadcast (the last one too)."""
    iterations = []
    real = admm.sample_error_block

    def counting(model, x_nodes, stream, iteration, *args, **kwargs):
        iterations.append(iteration)
        return real(model, x_nodes, stream, iteration, *args, **kwargs)

    monkeypatch.setattr(admm, "sample_error_block", counting)
    g, obj = small_setup(21)
    run_decentralized(g, obj, 0.5, NoiseModel.quantizer(1e-3), mode, 10,
                      RandomStream(seed=1))
    assert iterations == list(range(n_messages))


class TestConvergence:
    def test_noiseless_convergence_to_centralized(self):
        g, obj = small_setup(11)
        ref = reference_point(g, obj)
        traj = run_decentralized(g, obj, 0.5, NoiseModel.none(), ANALYSIS_FAITHFUL,
                                 1000, RandomStream(seed=7))
        assert edc_metric(traj, ref.x_central)[-1] < 1e-8

    def test_noiseless_gnorm_strictly_decreasing(self):
        g, obj = small_setup(12)
        ref = reference_point(g, obj)
        traj = run_decentralized(g, obj, 0.05, NoiseModel.none(), ANALYSIS_FAITHFUL,
                                 400, RandomStream(seed=8))
        gn = gnorm_series(traj, ref)
        above_floor = gn[:-1] > 1e-20
        assert np.all(np.diff(gn)[above_floor] < 0.0)

    def test_stationarity_at_reference(self):
        g, obj = small_setup(13)
        ref = reference_point(g, obj)
        traj = run_matrix_form(g, obj, 0.3, NoiseModel.none(), 1,
                               RandomStream(seed=9),
                               x0=ref.x_star, beta0=ref.beta_star)
        assert np.max(np.abs(traj.xs[1] - ref.x_star)) < 1e-10
        _, betas = arc_history(traj)
        assert np.max(np.abs(betas[1] - ref.beta_star)) < 1e-10

    def test_permutation_equivariance(self):
        g, obj = small_setup(14, n_nodes=6, rho=0.5)
        perm = np.array([3, 0, 5, 1, 4, 2])
        g2 = Graph.from_edges(6, [(perm[i], perm[j]) for i, j in g.edges])
        inv = np.argsort(perm)
        obj2 = ObjectiveSet.from_data(obj.designs[inv], obj.observations[inv])
        a = run_decentralized(g, obj, 0.5, NoiseModel.none(), ANALYSIS_FAITHFUL,
                              100, RandomStream(seed=10))
        b = run_decentralized(g2, obj2, 0.5, NoiseModel.none(), ANALYSIS_FAITHFUL,
                              100, RandomStream(seed=10))
        assert np.allclose(a.xs[:, :, :], b.xs[:, perm, :], atol=1e-10)


class TestValidationAndRecording:
    def test_trajectory_length(self):
        g, obj = small_setup(15)
        traj = run_decentralized(g, obj, 0.5, NoiseModel.none(), ANALYSIS_FAITHFUL,
                                 25, RandomStream(seed=11))
        assert len(traj) == 26
        assert traj.n_iter == 25
        assert traj.e_xs.shape == (25, g.n_nodes, 3)

    def test_single_node_rejected_at_graph_level(self):
        with pytest.raises(ValueError):
            Graph(n_nodes=1, edges=())

    def test_bad_args_rejected(self):
        g, obj = small_setup(16)
        with pytest.raises(ValueError):
            run_decentralized(g, obj, 0.0, NoiseModel.none(), ANALYSIS_FAITHFUL,
                              10, RandomStream(seed=1))
        with pytest.raises(ValueError):
            run_decentralized(g, obj, 1.0, NoiseModel.none(), ANALYSIS_FAITHFUL,
                              0, RandomStream(seed=1))
        with pytest.raises(ValueError, match="placement mode"):
            run_decentralized(g, obj, 1.0, NoiseModel.none(), "exact",
                              10, RandomStream(seed=1))

    def test_mismatched_objective_rejected(self):
        g, _ = small_setup(17)
        obj, _ = make_problem(g.n_nodes + 1, 3, 1e-3, "gaussian", seed=1)
        with pytest.raises(ValueError, match="locals"):
            run_decentralized(g, obj, 1.0, NoiseModel.none(), ANALYSIS_FAITHFUL,
                              10, RandomStream(seed=1))

    def test_light_record_drops_internals(self):
        g, obj = small_setup(18)
        traj = run_decentralized(g, obj, 0.5, NoiseModel.none(), ANALYSIS_FAITHFUL,
                                 10, RandomStream(seed=12), record="light")
        with pytest.raises(ValueError, match="full"):
            next(traj.arc_states())
        with pytest.raises(ValueError, match="full"):
            gnorm_series(traj, reference_point(g, obj))

    def test_light_and_full_share_x_path(self):
        g, obj = small_setup(19)
        m = NoiseModel.gaussian(1e-2)
        full = run_decentralized(g, obj, 0.5, m, ANALYSIS_FAITHFUL, 30,
                                 RandomStream(seed=13), record="full")
        light = run_decentralized(g, obj, 0.5, m, ANALYSIS_FAITHFUL, 30,
                                  RandomStream(seed=13), record="light")
        assert np.array_equal(full.xs, light.xs)

    def test_x_err_series_is_stacked_norm(self):
        g, obj = small_setup(20)
        ref = reference_point(g, obj)
        traj = run_decentralized(g, obj, 0.5, NoiseModel.none(), ANALYSIS_FAITHFUL,
                                 5, RandomStream(seed=14))
        manual = [np.linalg.norm((traj.xs[k] - ref.x_star).reshape(-1))
                  for k in range(6)]
        assert np.allclose(x_err_series(traj, ref), manual, atol=0)
