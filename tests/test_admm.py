import numpy as np
import pytest

from ncadmm import admm
from ncadmm.admm import (ANALYSIS_FAITHFUL, BROADCAST, ReferencePoint, Trajectory,
                         reference_point, run_decentralized, run_matrix_form,
                         x_err_series)
from ncadmm.analysis import edc_metric, error_gates, gnorm_series
from ncadmm.noise import NoiseModel, RandomStream, sample_error_block
from ncadmm.objective import ObjectiveSet, make_problem
from ncadmm.topology import (ArcMatrices, Graph, build_arc_matrices,
                             gen_connected_graph)


def small_setup(seed=0, n_nodes=8, rho=0.4, design="well_conditioned"):
    g = gen_connected_graph(n_nodes, rho, seed=seed)
    obj, _ = make_problem(n_nodes, 3, 1e-3, design, seed=seed + 1000)
    return g, obj


def per_step_arc_states(traj):
    """(z^k, beta^k) for k = 0..K, one iteration at a time, gathered by fancy indexing."""
    am = build_arc_matrices(traj.graph)
    beta = np.zeros((traj.graph.n_arcs, traj.xs.shape[2]))
    for k, x in enumerate(traj.xs):
        if k:
            beta = beta + (0.5 * traj.c) * (x[am.tail] - x[am.head])
        yield 0.5 * (x[am.tail] + x[am.head]), beta


def arc_history(traj):
    """The per-step arc states stacked: (zs, betas), each (K+1, 2E, n)."""
    zs, betas = zip(*per_step_arc_states(traj))
    return np.stack(zs), np.stack(betas)


def derive_alphas(traj, mode):
    """The per-node duals alpha^0..alpha^{K-1} of a run, by the per-node engine's own operations.

    alpha^k = alpha^{k-1} + c (|N_i| x^k - sum_j m_j^k), with the message
    m^k = x^k, or x^k + e^k in broadcast: the same neighbor sum, the same
    rounding order, so a ``run_decentralized`` record gives its engine's
    duals bit for bit.  H is invertible, so x^{k+1} pins alpha^k.
    """
    xs = traj.xs[1:-1]
    msgs = xs if mode == ANALYSIS_FAITHFUL else np.add(xs, traj.errors(slice(1, traj.n_iter)))
    w = traj.graph.degrees.astype(float)[:, None] * xs
    w -= build_arc_matrices(traj.graph).neighbor_sum(msgs)
    w *= traj.c
    return np.concatenate([np.zeros_like(traj.xs[:1]), np.cumsum(w, axis=0)])


class TestReferencePoint:
    def test_kkt_conditions(self):
        g, obj = small_setup(1)
        ref = reference_point(g, obj)
        am = build_arc_matrices(g)
        grad = obj.gradient_stack(ref.x_star)
        assert np.linalg.norm(grad + am.apply_mminus(ref.beta_star)) < 1e-8
        assert np.linalg.norm(am.apply_mminus_t(ref.x_star)) == 0.0

    def test_off_optimum_point_fails_stationarity(self, monkeypatch):
        # no dual solves M- beta = -grad f away from the centralized solution
        g, obj = small_setup(3)
        real = ObjectiveSet.centralized_solution
        monkeypatch.setattr(ObjectiveSet, "centralized_solution", lambda self: real(self) + 1.0)
        with pytest.raises(ValueError, match="stationarity residual .* exceeds tolerance"):
            reference_point(g, obj)

    def test_z_star_is_consensus_on_every_arc(self):
        """z* = 0.5 * Mplus.T x* is x_c on every arc, bit for bit, so the G-norm subtracts x_c."""
        g, obj = small_setup(2)
        ref = reference_point(g, obj)
        z_star = 0.5 * build_arc_matrices(g).apply_mplus_t(ref.x_star)
        assert np.array_equal(z_star, np.broadcast_to(ref.x_central, z_star.shape))

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
        """A noiseless run from zero reaches the reference point in the G-norm."""
        g, obj = small_setup(3)
        ref = reference_point(g, obj)
        traj = run_matrix_form(g, obj, 0.5, NoiseModel.none(), 300, RandomStream(seed=1))
        assert gnorm_series(traj, ref)[-1] <= 1e-20

    def test_weighted_combination(self):
        """At the zero start z = 0 on both arcs and beta = 0: c 2||x_c||^2 + ||beta*||^2 / c."""
        g = Graph.from_edges(2, [(0, 1)])
        obj = ObjectiveSet.from_data(np.ones((2, 1, 1)), np.array([[1.0], [3.0]]))
        ref = reference_point(g, obj)
        assert ref.x_central[0] == pytest.approx(2.0)
        traj = run_matrix_form(g, obj, 2.0, NoiseModel.none(), 1, RandomStream(seed=1))
        expect = 2.0 * 2 * np.sum(ref.x_central ** 2) + np.sum(ref.beta_star ** 2) / 2.0
        assert gnorm_series(traj, ref)[0] == pytest.approx(expect, rel=1e-12)

    def test_c_scaling(self):
        g, obj = small_setup(4)
        ref = reference_point(g, obj)
        for c in (0.5, 1.0, 2.0):
            traj = run_matrix_form(g, obj, c, NoiseModel.gaussian(0.1), 5,
                                   RandomStream(seed=2))
            zs, betas = arc_history(traj)
            dz = float(np.sum((zs[5] - ref.x_central) ** 2))
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
            if model.kind != "quantizer":  # its error follows x, equal here only to 1e-10
                # the kept chunked draws against the per-message draws derived again
                assert np.array_equal(td.errors(slice(None)), tm.errors(slice(None))), model.kind
            alpha_gap = derive_alphas(td, ANALYSIS_FAITHFUL) - derive_alphas(tm, ANALYSIS_FAITHFUL)
            assert np.max(np.abs(alpha_gap)) < 1e-10, model.kind
            (zd, bd), (zm, bm) = arc_history(td), arc_history(tm)
            assert np.max(np.abs(zd - zm)) < 1e-10, model.kind
            assert np.max(np.abs(bd - bm)) < 1e-10, model.kind

    def test_alpha_is_mminus_beta_along_matrix_run(self):
        g, obj = small_setup(7)
        am = build_arc_matrices(g)
        traj = run_matrix_form(g, obj, 0.4, NoiseModel.gaussian(1e-2), 60,
                               RandomStream(seed=3))
        _, betas = arc_history(traj)
        alphas = derive_alphas(traj, ANALYSIS_FAITHFUL)
        for k in (0, 15, 59):
            assert np.allclose(alphas[k], am.apply_mminus(betas[k]), atol=1e-10)

    def test_modes_identical_without_noise(self):
        g, obj = small_setup(8)
        stream = RandomStream(seed=4)
        a = run_decentralized(g, obj, 0.5, NoiseModel.none(), ANALYSIS_FAITHFUL, 40, stream)
        b = run_decentralized(g, obj, 0.5, NoiseModel.none(), BROADCAST, 40, stream)
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(derive_alphas(a, ANALYSIS_FAITHFUL), derive_alphas(b, BROADCAST))

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
    """The per-node protocol drawing its error one iteration at a time.

    Neighbor lists and degrees come from ``g.edges`` in plain Python, and
    every iteration takes two neighbor sums of its own, one per update.
    Returns the x, alpha and error histories.
    """
    nbrs = [[] for _ in range(g.n_nodes)]
    for i, j in g.edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    nbrs = [sorted(nb) for nb in nbrs]
    deg = np.array([len(nb) for nb in nbrs])
    degrees = deg.astype(float)[:, None]
    flat_nbrs = np.array([j for nb in nbrs for j in nb], dtype=np.intp)
    offsets = np.concatenate([[0], np.cumsum(deg[:-1])]).astype(np.intp)
    inv_ops = np.linalg.inv(obj.grams + (2.0 * c * deg)[:, None, None] * np.eye(obj.dim))
    x = np.zeros((g.n_nodes, obj.dim))
    alpha = np.zeros_like(x)
    xs, alphas, e_xs = [x], [alpha], []

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
        alphas.append(alpha)
        e_xs.append(e_k)
    return np.stack(xs), np.stack(alphas), np.stack(e_xs)


class TestChunkedDraws:
    """Chunked error draws replay the per-iteration loop bit for bit.

    At N=200 a chunk is 40 iterations, so 100 iterations cross two chunk
    boundaries.  At the steady-state shape (N=20, rho=0.3) a chunk is 409
    iterations, so 420 iterations cross one.
    """

    MODELS = [NoiseModel.gaussian(1e-2), NoiseModel.fixed_norm(1e-2)]
    ALL_KINDS = [NoiseModel.none(), NoiseModel.gaussian(1e-2),
                 NoiseModel.quantizer(1e-3), NoiseModel.fixed_norm(1e-2)]

    @pytest.fixture(scope="class")
    def instance(self):
        g = gen_connected_graph(200, 0.05, seed=21)
        obj, _ = make_problem(200, 3, 1e-3, "well_conditioned", seed=22)
        return g, obj

    @pytest.fixture(scope="class")
    def steady_instance(self):
        g = gen_connected_graph(20, 0.3, seed=23)
        obj, _ = make_problem(20, 3, 1e-3, "well_conditioned", seed=24)
        return g, obj

    @staticmethod
    def check_decentralized(g, obj, model, mode, max_iter, record="errors"):
        stream = RandomStream(seed=15, trial=1, cell=2)
        traj = run_decentralized(g, obj, 0.3, model, mode, max_iter, stream, record=record)
        xs, alphas, e_xs = per_iteration_decentralized(g, obj, 0.3, model, mode, max_iter,
                                                       stream)
        assert np.array_equal(traj.xs, xs)
        assert np.array_equal(traj.errors(slice(None)), e_xs)
        assert np.array_equal(derive_alphas(traj, mode), alphas[:-1])
        if record == "light":
            assert traj.e_xs is None

    @pytest.mark.parametrize("mode", [ANALYSIS_FAITHFUL, BROADCAST])
    @pytest.mark.parametrize("model", ALL_KINDS, ids=lambda m: m.kind)
    def test_decentralized_matches_per_iteration_loop(self, instance, model, mode):
        g, obj = instance
        self.check_decentralized(g, obj, model, mode, 100)

    @pytest.mark.parametrize("mode", [ANALYSIS_FAITHFUL, BROADCAST])
    @pytest.mark.parametrize("model", ALL_KINDS, ids=lambda m: m.kind)
    def test_decentralized_matches_per_iteration_loop_at_steady_shape(
            self, steady_instance, model, mode):
        g, obj = steady_instance
        self.check_decentralized(g, obj, model, mode, 420)

    @pytest.mark.parametrize("max_iter", [1, 2])
    @pytest.mark.parametrize("mode", [ANALYSIS_FAITHFUL, BROADCAST])
    @pytest.mark.parametrize("model", ALL_KINDS, ids=lambda m: m.kind)
    def test_shortest_runs_match_per_iteration_loop(self, instance, model, mode, max_iter):
        """K=1 takes one step and no dual update; K=2 takes the first dual update."""
        g, obj = instance
        self.check_decentralized(g, obj, model, mode, max_iter)

    @pytest.mark.parametrize("mode", [ANALYSIS_FAITHFUL, BROADCAST])
    @pytest.mark.parametrize("model", ALL_KINDS, ids=lambda m: m.kind)
    def test_light_record_matches_per_iteration_loop(self, instance, model, mode):
        """The sweep's record: x only, from the same buffered step."""
        g, obj = instance
        self.check_decentralized(g, obj, model, mode, 100, record="light")

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
        dz = 0.5 * am.apply_mplus_t(traj.xs) - ref.x_central
        steps = (0.5 * traj.c) * am.apply_mminus_t(traj.xs[1:])
        db = np.cumsum(np.concatenate([np.zeros_like(steps[:1]), steps]), axis=0) - ref.beta_star
        gnorm = traj.c * np.sum(dz * dz, axis=(1, 2)) + np.sum(db * db, axis=(1, 2)) / traj.c
        assert np.array_equal(gnorm_series(traj, ref), gnorm)

        e_z = 0.5 * am.apply_mplus_t(traj.errors(slice(0, traj.n_iter)))
        ez_norm = np.sqrt(np.sum(e_z * e_z, axis=(1, 2)))
        xerr = x_err_series(traj, ref)
        assert np.array_equal(error_gates(traj, xerr), ez_norm <= xerr[1:])
        # thresholds at the whole-block norm and one ulp below it pin the
        # streamed norm to that value exactly
        at = np.concatenate([[0.0], ez_norm])
        assert error_gates(traj, at).all()
        assert not error_gates(traj, np.nextafter(at, -np.inf)).any()


class TestErrorRecord:
    """``Trajectory.errors`` replays the per-iteration draws, whatever the record stores.

    At N=200 a draw block is 40 iterations: K=100 gives blocks of 40, 40 and
    20 rows, one per message, in either placement.
    """

    ALL_KINDS = [NoiseModel.none(), NoiseModel.gaussian(1e-2),
                 NoiseModel.quantizer(1e-3), NoiseModel.fixed_norm(1e-2)]
    MAX_ITER = 100

    @pytest.fixture(scope="class")
    def instance(self):
        g = gen_connected_graph(200, 0.05, seed=25)
        obj, _ = make_problem(200, 3, 1e-3, "well_conditioned", seed=26)
        return g, obj

    @pytest.mark.parametrize("engine", [ANALYSIS_FAITHFUL, BROADCAST, "matrix_form"])
    @pytest.mark.parametrize("model", ALL_KINDS, ids=lambda m: m.kind)
    def test_equal_to_per_iteration_draws(self, instance, model, engine):
        g, obj = instance
        stream = RandomStream(seed=27, trial=1, cell=2)
        if engine == "matrix_form":
            traj = run_matrix_form(g, obj, 0.3, model, self.MAX_ITER, stream)
        else:
            traj = run_decentralized(g, obj, 0.3, model, engine, self.MAX_ITER, stream,
                                     record="errors")
        k_max = self.MAX_ITER
        drawn = np.stack([sample_error_block(model, traj.xs[k], stream, k)
                          for k in range(k_max)])
        for rows in (slice(None), slice(35, 45), slice(79, 81), slice(78, k_max),
                     slice(k_max - 1, k_max)):
            assert np.array_equal(traj.errors(rows), drawn[rows]), rows

    @pytest.mark.parametrize("mode", [ANALYSIS_FAITHFUL, BROADCAST])
    @pytest.mark.parametrize("model", ALL_KINDS, ids=lambda m: m.kind)
    def test_light_record_errors_equal_errors_record(self, instance, model, mode):
        g, obj = instance
        light, kept = (run_decentralized(g, obj, 0.3, model, mode, self.MAX_ITER,
                                         RandomStream(seed=28), record=record)
                       for record in ("light", "errors"))
        assert light.e_xs is None
        assert np.array_equal(light.errors(slice(None)), kept.errors(slice(None)))

    @pytest.mark.parametrize("mode", [ANALYSIS_FAITHFUL, BROADCAST])
    @pytest.mark.parametrize("model", ALL_KINDS, ids=lambda m: m.kind)
    def test_only_drawn_kinds_store_errors(self, instance, model, mode):
        g, obj = instance
        traj = run_decentralized(g, obj, 0.3, model, mode, self.MAX_ITER,
                                 RandomStream(seed=29), record="errors")
        if model.kind in ("quantizer", "none"):
            assert traj.e_xs is None
        else:
            assert traj.e_xs.shape == (self.MAX_ITER, g.n_nodes, 3)

    @pytest.mark.parametrize("record", admm.RECORDS)
    def test_none_errors_are_zeros_at_any_record(self, instance, record):
        g, obj = instance
        traj = run_decentralized(g, obj, 0.3, NoiseModel.none(), BROADCAST, 10,
                                 RandomStream(seed=30), record=record)
        assert traj.e_xs is None
        errors = traj.errors(slice(None))
        assert errors.shape == (10, g.n_nodes, 3)
        assert not errors.any()

    @pytest.mark.parametrize("model", [NoiseModel.gaussian(1e-2), NoiseModel.fixed_norm(1e-2)],
                             ids=lambda m: m.kind)
    def test_light_record_of_a_drawn_kind_derives_its_errors(self, instance, model):
        g, obj = instance
        light, kept = (run_decentralized(g, obj, 0.3, model, BROADCAST, 10,
                                         RandomStream(seed=30), record=record)
                       for record in ("light", "errors"))
        assert light.e_xs is None
        for rows in (slice(None), slice(3, 7), slice(9, 10)):
            assert np.array_equal(light.errors(rows), kept.errors(rows)), rows

    def test_light_quantizer_record_derives_its_errors(self, instance):
        g, obj = instance
        model = NoiseModel.quantizer(1e-3)
        light, kept = (run_decentralized(g, obj, 0.3, model, BROADCAST, 10,
                                         RandomStream(seed=31), record=record)
                       for record in ("light", "errors"))
        assert np.array_equal(light.errors(slice(None)), kept.errors(slice(None)))


def per_step_gnorm(traj, ref):
    """The per-iteration gnorm loop that the blocked series replaced."""
    out = np.empty(len(traj))
    for k, (z, beta) in enumerate(per_step_arc_states(traj)):
        dz = z - ref.x_central
        db = beta - ref.beta_star
        out[k] = traj.c * np.sum(dz * dz) + np.sum(db * db) / traj.c
    return out


def per_step_ez_norms(traj):
    """||e_z^k|| one step at a time, as the per-step gate loop computed it."""
    am = build_arc_matrices(traj.graph)
    norms = np.empty(traj.n_iter)
    for k in range(traj.n_iter):
        e_x = traj.errors(slice(k, k + 1))[0]
        e_z = 0.5 * (e_x[am.tail] + e_x[am.head])
        norms[k] = np.sqrt(np.sum(e_z * e_z))
    return norms


class TestBlockedSeries:
    """analysis.gnorm_series and error_gates equal the per-step loops across block edges.

    At N=20, rho=0.3 (114 arcs) a block is 71 iterations, so K=150 gives
    two whole blocks and a remainder; the complete graph on N=100 has
    9,900 arcs, more than one block's worth, so every block is one row.
    """

    SHAPES = {"remainder": (20, 0.3, 150), "one_row": (100, 1.0, 5)}
    ALL_KINDS = [NoiseModel.none(), NoiseModel.gaussian(1e-2),
                 NoiseModel.quantizer(1e-3), NoiseModel.fixed_norm(1e-2)]

    @pytest.fixture(scope="class", params=list(SHAPES))
    def shape(self, request):
        n_nodes, rho, max_iter = self.SHAPES[request.param]
        g = gen_connected_graph(n_nodes, rho, seed=31)
        obj, _ = make_problem(n_nodes, 3, 1e-3, "well_conditioned", seed=32)
        return g, obj, reference_point(g, obj), max_iter

    def test_block_sizes(self, shape):
        g, obj, _, max_iter = shape
        traj = run_decentralized(g, obj, 0.3, NoiseModel.none(), ANALYSIS_FAITHFUL,
                                 max_iter, RandomStream(seed=1))
        rows = [s.stop - s.start for s in admm.row_blocks(len(traj), g.n_arcs)]
        steps = [s.stop - s.start for s in admm.row_blocks(traj.n_iter, g.n_arcs)]
        expected = {20: [71, 71, 9], 100: [1] * 6}[g.n_nodes]
        assert expected[0] == max(1, admm._CHUNK_LANES // g.n_arcs)
        assert rows == expected
        assert steps == {20: [71, 71, 8], 100: [1] * 5}[g.n_nodes]

    @pytest.mark.parametrize("mode", [ANALYSIS_FAITHFUL, BROADCAST])
    @pytest.mark.parametrize("model", ALL_KINDS, ids=lambda m: m.kind)
    def test_equal_to_per_step_loops(self, shape, model, mode):
        g, obj, ref, max_iter = shape
        traj = run_decentralized(g, obj, 0.3, model, mode, max_iter,
                                 RandomStream(seed=18, trial=1, cell=2))
        assert np.array_equal(gnorm_series(traj, ref), per_step_gnorm(traj, ref))
        # thresholds at the per-step norm and one ulp below it pin each
        # blocked norm to that value exactly
        at = np.concatenate([[0.0], per_step_ez_norms(traj)])
        assert error_gates(traj, at).all()
        assert not error_gates(traj, np.nextafter(at, -np.inf)).any()

    def test_gnorm_gathers_once_per_block(self, shape, monkeypatch):
        g, obj, ref, max_iter = shape
        traj = run_decentralized(g, obj, 0.3, NoiseModel.gaussian(1e-2), ANALYSIS_FAITHFUL,
                                 max_iter, RandomStream(seed=20))
        gathered = []
        real = ArcMatrices.arc_ends

        def counting(self, x_nodes, *args, **kwargs):
            gathered.append(x_nodes.shape[0])
            return real(self, x_nodes, *args, **kwargs)

        monkeypatch.setattr(ArcMatrices, "arc_ends", counting)
        gnorm_series(traj, ref)
        rows = max(1, admm._CHUNK_LANES // g.n_arcs)
        assert gathered == [min(rows, len(traj) - start) for start in range(0, len(traj), rows)]


@pytest.mark.parametrize("mode, max_iter", [(ANALYSIS_FAITHFUL, 10), (BROADCAST, 11)])
def test_quantizer_draws_each_message_once(monkeypatch, mode, max_iter):
    """K iterations carry K perturbed iterates, x^0..x^{K-1}, in either placement."""
    iterations = []
    real = admm.sample_error_block

    def counting(model, x_nodes, stream, iteration, *args, **kwargs):
        iterations.append(iteration)
        return real(model, x_nodes, stream, iteration, *args, **kwargs)

    monkeypatch.setattr(admm, "sample_error_block", counting)
    g, obj = small_setup(21)
    run_decentralized(g, obj, 0.5, NoiseModel.quantizer(1e-3), mode, max_iter,
                      RandomStream(seed=1))
    assert iterations == list(range(max_iter))


@pytest.mark.parametrize("model", [NoiseModel.none(), NoiseModel.gaussian(1e-2),
                                   NoiseModel.quantizer(1e-3), NoiseModel.fixed_norm(1e-2)],
                         ids=lambda m: m.kind)
def test_matrix_form_draws_one_call_per_message(monkeypatch, model):
    """The reference engine draws message k with its own call, k = 0..K-1 in order.

    At N=200 a chunk would be 40 iterations; 45 messages take 45 calls.
    """
    iterations = []
    real = admm.sample_error_block

    def counting(model, x_nodes, stream, iteration, *args, **kwargs):
        iterations.append(np.asarray(iteration).tolist())
        return real(model, x_nodes, stream, iteration, *args, **kwargs)

    monkeypatch.setattr(admm, "sample_error_block", counting)
    g, obj = small_setup(24, n_nodes=200, rho=0.05)
    run_matrix_form(g, obj, 0.5, model, 45, RandomStream(seed=1))
    assert iterations == list(range(45))


@pytest.mark.parametrize("mode, max_iter", [(ANALYSIS_FAITHFUL, 100), (BROADCAST, 101)])
@pytest.mark.parametrize("model", [NoiseModel.none(), NoiseModel.gaussian(1e-2),
                                   NoiseModel.fixed_norm(1e-2)], ids=lambda m: m.kind)
def test_state_free_kinds_draw_one_call_per_chunk(monkeypatch, model, mode, max_iter):
    """Error that does not depend on x, zero error included, is drawn a chunk per call.

    At N=200 a chunk is 40 iterations, so 100 or 101 iterations take three
    calls, the last of 20 or 21 messages.
    """
    iterations = []
    real = admm.sample_error_block

    def counting(model, x_nodes, stream, iteration, *args, **kwargs):
        iterations.append(np.asarray(iteration).tolist())
        return real(model, x_nodes, stream, iteration, *args, **kwargs)

    monkeypatch.setattr(admm, "sample_error_block", counting)
    g, obj = small_setup(23, n_nodes=200, rho=0.05)
    run_decentralized(g, obj, 0.5, model, mode, max_iter, RandomStream(seed=1))
    assert admm._CHUNK_LANES // 200 == 40
    assert iterations == [list(range(start, min(start + 40, max_iter)))
                          for start in range(0, max_iter, 40)]


@pytest.mark.parametrize("mode", [ANALYSIS_FAITHFUL, BROADCAST])
def test_one_neighbor_sum_per_iteration(monkeypatch, mode):
    """K iterations take K neighbor sums, one per message, in either placement."""
    calls = []
    real = ArcMatrices.neighbor_sum

    def counting(self, x_nodes):
        calls.append(x_nodes.shape)
        return real(self, x_nodes)

    monkeypatch.setattr(ArcMatrices, "neighbor_sum", counting)
    g, obj = small_setup(22)
    run_decentralized(g, obj, 0.5, NoiseModel.gaussian(1e-2), mode, 10, RandomStream(seed=2))
    assert len(calls) == 10, calls


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
        """A noiseless run from zero reaches x* and, through the derived duals, beta*."""
        g, obj = small_setup(13)
        ref = reference_point(g, obj)
        traj = run_matrix_form(g, obj, 0.3, NoiseModel.none(), 300, RandomStream(seed=9))
        assert np.max(np.abs(traj.xs[-1] - ref.x_star)) < 1e-10
        _, betas = arc_history(traj)
        assert np.max(np.abs(betas[-1] - ref.beta_star)) < 1e-10

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
        assert traj.errors(slice(None)).shape == (25, g.n_nodes, 3)

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
        for record in ("Full", "full"):
            with pytest.raises(ValueError, match=f"unknown record '{record}'"):
                run_decentralized(g, obj, 1.0, NoiseModel.none(), ANALYSIS_FAITHFUL,
                                  10, RandomStream(seed=1), record=record)

    def test_mismatched_objective_rejected(self):
        g, _ = small_setup(17)
        obj, _ = make_problem(g.n_nodes + 1, 3, 1e-3, "gaussian", seed=1)
        with pytest.raises(ValueError, match="locals"):
            run_decentralized(g, obj, 1.0, NoiseModel.none(), ANALYSIS_FAITHFUL,
                              10, RandomStream(seed=1))

    def test_light_record_drops_internals(self):
        """A light record keeps x alone and still derives the G-norm and the gate."""
        g, obj = small_setup(18)
        ref = reference_point(g, obj)
        light, kept = (run_decentralized(g, obj, 0.5, NoiseModel.gaussian(1e-2),
                                         ANALYSIS_FAITHFUL, 10, RandomStream(seed=12),
                                         record=record)
                       for record in ("light", "errors"))
        assert light.e_xs is None
        assert np.array_equal(gnorm_series(light, ref), gnorm_series(kept, ref))
        xerr = x_err_series(kept, ref)
        assert np.array_equal(error_gates(light, xerr), error_gates(kept, xerr))

    def test_light_and_errors_share_x_path(self):
        g, obj = small_setup(19)
        m = NoiseModel.gaussian(1e-2)
        kept = run_decentralized(g, obj, 0.5, m, ANALYSIS_FAITHFUL, 30,
                                 RandomStream(seed=13), record="errors")
        light = run_decentralized(g, obj, 0.5, m, ANALYSIS_FAITHFUL, 30,
                                  RandomStream(seed=13), record="light")
        assert np.array_equal(kept.xs, light.xs)

    def test_x_err_series_is_stacked_norm(self):
        g, obj = small_setup(20)
        ref = reference_point(g, obj)
        traj = run_decentralized(g, obj, 0.5, NoiseModel.none(), ANALYSIS_FAITHFUL,
                                 5, RandomStream(seed=14))
        manual = [np.linalg.norm((traj.xs[k] - ref.x_star).reshape(-1))
                  for k in range(6)]
        assert np.allclose(x_err_series(traj, ref), manual, atol=0)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    def test_x_err_series_equals_whole_history_formula(self, dim):
        """Squaring in place leaves every distance bit-identical to sqrt(sum(d * d))."""
        rng = np.random.default_rng(dim)
        g = gen_connected_graph(12, 0.4, seed=dim)
        xs = rng.standard_normal((40, 12, dim)) * rng.choice([1e-9, 1.0, 1e6], (40, 12, dim))
        x_star = np.tile(rng.standard_normal(dim), (12, 1))
        traj = Trajectory(graph=g, c=0.5, xs=xs, noise=NoiseModel.none(),
                          stream=RandomStream(seed=0))
        ref = ReferencePoint(x_star=x_star, beta_star=None, x_central=x_star[0])
        d = xs - x_star
        assert np.array_equal(x_err_series(traj, ref), np.sqrt(np.sum(d * d, axis=(1, 2))))
