import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncadmm.admm import (ANALYSIS_FAITHFUL, BROADCAST, ReferencePoint, Trajectory, reference_point,
                         run_decentralized, run_matrix_form, x_err_series)
from ncadmm.analysis import (MU_GRID, audit_contraction, edc_metric,
                             error_gates, gnorm_series, optimize_delta,
                             steady_state_check, theory_constants)
from ncadmm.noise import NoiseModel, RandomStream
from ncadmm.objective import make_problem
from ncadmm.topology import (Graph, SpectralSummary, build_arc_matrices,
                             gen_connected_graph, spectral_summary)

# Frozen from an independent evaluation of the closed forms with 40-digit
# arithmetic: sigma_max(Mplus) = sigma_max(Mminus) = sqrt(6) and
# sigma_min_nz(Mminus) = sqrt(2) on the 3-node path, m_f = M_f = 1,
# c = 0.1, mu = 2.
P3_A = 23.75
P3_B = 12.0
P3_DELTA = 0.036948442646772256635
P3_CONTRACTION = 0.96436810054657805965
P3_X_BOUND = 1.4285714285714285714


def p3_summary():
    return spectral_summary(build_arc_matrices(Graph.from_edges(3, [(0, 1), (1, 2)])))


def certified_setup(seed, n_nodes=12, rho=0.3):
    """A problem/penalty pair satisfying both admissibility conditions."""
    g = gen_connected_graph(n_nodes, rho, seed=seed)
    obj, _ = make_problem(n_nodes, 3, 1e-3, "well_conditioned", seed=seed + 5000)
    spec = spectral_summary(build_arc_matrices(g))
    c = obj.m_f / max(spec.sigma_max_mplus**2, spec.sigma_max_mplus)
    return g, obj, spec, c


class TestTheoryConstants:
    def test_p3_reference_certificate(self):
        r = theory_constants(p3_summary(), m_f=1.0, M_f=1.0, c=0.1, mu=2.0)
        assert r.a == pytest.approx(P3_A, rel=1e-12)
        assert r.b == pytest.approx(P3_B, rel=1e-12)
        assert r.delta == pytest.approx(P3_DELTA, rel=1e-12)
        assert r.contraction_factor == pytest.approx(P3_CONTRACTION, rel=1e-12)
        assert r.x_bound_coeff == pytest.approx(P3_X_BOUND, rel=1e-12)
        assert r.cond_squared and r.cond_linear

    def test_independent_formula_evaluation(self):
        # Second implementation of the closed forms, written from the symbols
        # rather than reusing the library expressions, over 10 random configs.
        rng = np.random.default_rng(77)
        for trial in range(10):
            n = int(rng.integers(4, 16))
            g = gen_connected_graph(n, 0.5, seed=trial)
            spec = spectral_summary(build_arc_matrices(g))
            m_f = float(rng.uniform(0.1, 2.0))
            big_m = m_f + float(rng.uniform(0.0, 5.0))
            c = float(rng.uniform(1e-3, 0.3))
            mu = 1.0 + float(rng.uniform(1e-2, 20.0))
            sp, sm, smn = (spec.sigma_max_mplus, spec.sigma_max_mminus,
                           spec.sigma_min_nz_mminus)
            a = c / 4 * sp**2 + 2 * mu * big_m**2 / (c * smn**2) \
                + 4 * c * sp**2 * sm**2 / smn**4
            b = 2 * sp**2 / ((1 - 1 / mu) * smn**2)
            delta = min((m_f - c * sp / 2) / a, 1 / b)
            r = theory_constants(spec, m_f, big_m, c, mu)
            assert r.a == pytest.approx(a, rel=1e-12)
            assert r.b == pytest.approx(b, rel=1e-12)
            assert r.delta == pytest.approx(delta, rel=1e-12)
            assert r.contraction_factor == pytest.approx(1 / (1 + delta), rel=1e-12)

    def test_delta_vanishes_as_c_shrinks(self):
        spec = p3_summary()
        deltas = [theory_constants(spec, 1.0, 1.0, c, 2.0).delta
                  for c in (1e-2, 1e-4, 1e-6)]
        assert deltas[0] > deltas[1] > deltas[2] > 0

    def test_rejects_bad_mu_c_mf(self):
        spec = p3_summary()
        with pytest.raises(ValueError):
            theory_constants(spec, 1.0, 1.0, 0.1, mu=1.0)
        with pytest.raises(ValueError):
            theory_constants(spec, 1.0, 1.0, 0.0, mu=2.0)
        with pytest.raises(ValueError):
            theory_constants(spec, 0.0, 1.0, 0.1, mu=2.0)

    def test_condition_flags_disagree_in_between(self):
        # sigma_max > 2 makes the squared condition stricter: pick c between
        # the two thresholds.
        spec = p3_summary()
        sp = spec.sigma_max_mplus
        c_mid = 2.0 / (sp**2) + 0.5 * (2.0 / sp - 2.0 / sp**2)
        r = theory_constants(spec, 1.0, 1.0, c_mid, 2.0)
        assert r.cond_linear and not r.cond_squared
        assert r.x_bound_coeff == math.inf

    def test_corollary_coefficients(self):
        r = theory_constants(p3_summary(), 1.0, 1.0, 0.1, 2.0, sigma_e=0.01)
        assert r.corollary_bound_sqrt == pytest.approx(math.sqrt(2.0) * 0.01, rel=1e-12)
        assert r.corollary_bound_stated == pytest.approx(0.02, rel=1e-12)

    def test_json_dict_is_flat_and_named(self):
        doc = theory_constants(p3_summary(), 1.0, 1.0, 0.1, 2.0).to_json_dict()
        expected_keys = {
            "m_f", "M_f", "c", "mu", "sigma_max_mplus", "sigma_max_mminus",
            "sigma_min_nz_mminus", "a", "b", "delta", "contraction_factor",
            "cond_squared", "cond_linear", "x_bound_coeff",
            "corollary_bound_sqrt", "corollary_bound_stated",
        }
        assert set(doc) == expected_keys
        assert all(not isinstance(v, dict) for v in doc.values())


class TestOptimizeDelta:
    def test_grid_dominates_single_point(self):
        spec = p3_summary()
        mu_star, delta_star = optimize_delta(spec, 1.0, 1.0, 0.1)
        assert delta_star >= P3_DELTA
        assert theory_constants(spec, 1.0, 1.0, 0.1, mu_star).delta == delta_star

    def test_grid_neighbors_do_not_beat_max(self):
        spec = p3_summary()
        _, delta_star = optimize_delta(spec, 1.0, 1.0, 0.1)
        assert all(theory_constants(spec, 1.0, 1.0, 0.1, float(mu)).delta
                   <= delta_star for mu in MU_GRID)

    def test_infeasible_returns_zero(self):
        spec = p3_summary()
        c_big = 2.5 / spec.sigma_max_mplus  # violates the linear condition
        mu, delta = optimize_delta(spec, 1.0, 1.0, c_big)
        assert delta == 0.0

    def test_grid_shape(self):
        grid = MU_GRID
        assert grid.shape == (121,)
        assert grid[0] == pytest.approx(1.001) and grid[-1] == pytest.approx(1001.0)

    def test_grid_is_read_only(self):
        with pytest.raises(ValueError):
            MU_GRID[0] = 2.0

    def test_equals_the_per_mu_scan(self):
        # the search as one scalar evaluation of delta per grid point, kept
        # by a strict > scan: the array pass must return the same floats
        def scalar_delta(spec, m_f, M_f, c, mu):
            sp, sm = spec.sigma_max_mplus, spec.sigma_max_mminus
            smn = spec.sigma_min_nz_mminus
            a = (0.25 * c * sp**2 + 2.0 * mu * M_f**2 / (c * smn**2)
                 + 4.0 * c * sp**2 * sm**2 / smn**4)
            b = 2.0 * sp**2 / ((1.0 - 1.0 / mu) * smn**2)
            return min((m_f - 0.5 * c * sp) / a, 1.0 / b)

        def per_mu_scan(spec, m_f, M_f, c):
            if m_f - 0.5 * c * spec.sigma_max_mplus < 0.0:
                return 2.0, 0.0
            best_mu, best_delta = None, -math.inf
            for mu in (1.0 + 10.0 ** np.linspace(-3.0, 3.0, 121)).tolist():
                delta = scalar_delta(spec, m_f, M_f, c, mu)
                if delta > best_delta:
                    best_mu, best_delta = mu, delta
            return best_mu, max(best_delta, 0.0)

        rng = np.random.default_rng(1701)
        infeasible = 0
        for trial in range(1500):
            sm, m_f, c = 10.0 ** rng.uniform([-1.0, -3.0, -4.0], [1.5, 1.0, 1.0])
            spec = SpectralSummary(
                sigma_max_mplus=float(10.0 ** rng.uniform(-1.0, 1.5)),
                sigma_max_mminus=float(sm),
                sigma_min_nz_mminus=float(sm * 10.0 ** rng.uniform(-3.0, 0.0)),
                max_degree=int(rng.integers(1, 50)))
            M_f = float(m_f * 10.0 ** rng.uniform(0.0, 3.0))
            if trial % 5 == 0:
                M_f = 0.0  # a no longer grows with mu, so delta ties on a plateau
            m_f, c = float(m_f), float(c)
            expected = per_mu_scan(spec, m_f, M_f, c)
            got = optimize_delta(spec, m_f, M_f, c)
            assert got == expected
            assert all(type(v) is float for v in got)
            infeasible += expected == (2.0, 0.0)
            report = theory_constants(spec, m_f, M_f, c, got[0])
            assert report.delta == scalar_delta(spec, m_f, M_f, c, got[0])
            assert all(type(v) is float for v in (report.a, report.b, report.delta))
        assert 200 < infeasible < 1300


@settings(max_examples=40, deadline=None)
@given(m1=st.floats(min_value=0.05, max_value=2.0),
       bump=st.floats(min_value=0.0, max_value=1.0),
       c=st.floats(min_value=1e-3, max_value=0.2),
       mu=st.floats(min_value=1.01, max_value=50.0))
def test_delta_monotone_in_m_f(m1, bump, c, mu):
    spec = p3_summary()
    big_m = 4.0
    lo = theory_constants(spec, m1, big_m, c, mu).delta
    hi = theory_constants(spec, m1 + bump, big_m, c, mu).delta
    assert hi >= lo - 1e-15


class TestAuditContraction:
    def test_noiseless_certified_run_has_zero_violations(self):
        g, obj, spec, c = certified_setup(0)
        mu_star, _ = optimize_delta(spec, obj.m_f, obj.M_f, c)
        report = theory_constants(spec, obj.m_f, obj.M_f, c, mu_star)
        ref = reference_point(g, obj)
        traj = run_decentralized(g, obj, c, NoiseModel.none(), ANALYSIS_FAITHFUL,
                                 300, RandomStream(seed=1))
        audit = audit_contraction(traj, ref, report)
        assert report.conditions_hold
        assert not (audit.contraction_violated | audit.x_bound_violated).any()
        assert np.all(audit.gates)  # zero error always passes the gate

    def test_reference_point_run_is_skipped(self):
        """Once a noiseless run sits at the reference point, its ratio checks are skipped.

        The G-norm falls below the 1e-14 floor at step 773 of this run.
        """
        g, obj, spec, c = certified_setup(1)
        mu_star, _ = optimize_delta(spec, obj.m_f, obj.M_f, c)
        report = theory_constants(spec, obj.m_f, obj.M_f, c, mu_star)
        ref = reference_point(g, obj)
        traj = run_matrix_form(g, obj, c, NoiseModel.none(), 1200, RandomStream(seed=2))
        audit = audit_contraction(traj, ref, report)
        assert not audit.skipped[0]
        assert np.all(audit.skipped[1000:])
        assert not (audit.contraction_violated | audit.x_bound_violated).any()

    def test_gate_eventually_alternates_under_fixed_norm_noise(self):
        g, obj, spec, c = certified_setup(2)
        mu_star, _ = optimize_delta(spec, obj.m_f, obj.M_f, c)
        report = theory_constants(spec, obj.m_f, obj.M_f, c, mu_star)
        ref = reference_point(g, obj)
        traj = run_decentralized(g, obj, c, NoiseModel.fixed_norm(1e-3),
                                 ANALYSIS_FAITHFUL, 400, RandomStream(seed=3))
        audit = audit_contraction(traj, ref, report)
        assert not (audit.contraction_violated | audit.x_bound_violated).any()
        assert audit.gates[:20].all()      # far from the floor: gated
        assert (~audit.gates).any()        # at the floor the gate switches off

    def test_audit_length_matches(self):
        g, obj, spec, c = certified_setup(3)
        report = theory_constants(spec, obj.m_f, obj.M_f, c, 2.0)
        ref = reference_point(g, obj)
        traj = run_decentralized(g, obj, c, NoiseModel.none(), ANALYSIS_FAITHFUL,
                                 40, RandomStream(seed=4))
        audit = audit_contraction(traj, ref, report)
        assert audit.ratios.shape == (40,)
        assert audit.gates.shape == (40,)
        for mask in (audit.contraction_violated, audit.x_bound_violated):
            assert mask.shape == (40,) and mask.dtype == bool

    def test_reference_point_of_another_graph_rejected(self):
        g, obj, spec, c = certified_setup(5)
        report = theory_constants(spec, obj.m_f, obj.M_f, c, 2.0)
        traj = run_decentralized(g, obj, c, NoiseModel.none(), ANALYSIS_FAITHFUL,
                                 10, RandomStream(seed=6))
        other = certified_setup(5, n_nodes=10)
        with pytest.raises(ValueError, match="mismatched shapes"):
            audit_contraction(traj, reference_point(*other[:2]), report)

    @pytest.mark.parametrize("length", [0, 10, 12, 30])
    def test_gate_rejects_xerr_of_another_length(self, length):
        """K=10 needs K+1 = 11 distances: a longer one is not sliced, a shorter one not broadcast."""
        g, obj, _, c = certified_setup(6)
        traj = run_decentralized(g, obj, c, NoiseModel.gaussian(1e-3), ANALYSIS_FAITHFUL,
                                 10, RandomStream(seed=7), record="errors")
        assert error_gates(traj, np.ones(11)).all()
        with pytest.raises(ValueError, match=rf"xerr has shape \({length},\);") as err:
            error_gates(traj, np.ones(length))
        assert "\n" not in str(err.value)

    def test_unchecked_when_conditions_fail(self):
        g, obj, spec, _ = certified_setup(4)
        c_big = 3.0 * obj.m_f / spec.sigma_max_mplus  # violates both readings
        report = theory_constants(spec, obj.m_f, obj.M_f, c_big, 2.0)
        assert not report.conditions_hold
        ref = reference_point(g, obj)
        traj = run_decentralized(g, obj, c_big, NoiseModel.none(),
                                 ANALYSIS_FAITHFUL, 50, RandomStream(seed=5))
        audit = audit_contraction(traj, ref, report)
        assert not audit.checked.any()
        assert not (audit.contraction_violated | audit.x_bound_violated).any()


class TestSteadyState:
    def test_zero_noise_trivially_holds(self):
        g, obj, spec, c = certified_setup(5)
        ref = reference_point(g, obj)
        traj = run_decentralized(g, obj, 0.5, NoiseModel.none(), ANALYSIS_FAITHFUL,
                                 600, RandomStream(seed=6))
        res = steady_state_check(traj, ref, 0.0, g)
        assert res.tail_mean < 1e-10
        assert res.holds

    def test_bound_values_p3(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        obj, _ = make_problem(3, 2, 1e-3, "well_conditioned", seed=9)
        ref = reference_point(g, obj)
        traj = run_decentralized(g, obj, 0.2, NoiseModel.fixed_norm(0.01 / np.sqrt(3)),
                                 ANALYSIS_FAITHFUL, 3000, RandomStream(seed=7))
        res = steady_state_check(traj, ref, 0.01, g)
        assert res.bound_sqrt == pytest.approx(np.sqrt(2.0) * 0.01, rel=1e-12)
        assert res.bound_stated == pytest.approx(0.02, rel=1e-12)

    def test_both_bounds_always_reported(self):
        g, obj, spec, c = certified_setup(6)
        ref = reference_point(g, obj)
        sigma = 1e-2
        traj = run_decentralized(g, obj, c, NoiseModel.fixed_norm(sigma / np.sqrt(g.n_nodes)),
                                 ANALYSIS_FAITHFUL, 4000, RandomStream(seed=8))
        res = steady_state_check(traj, ref, sigma, g)
        assert res.bound_stated == pytest.approx(np.sqrt(g.max_degree) * res.bound_sqrt,
                                                 rel=1e-12)
        assert isinstance(res.holds, bool)

    def test_too_short_trajectory_rejected(self):
        g, obj, spec, c = certified_setup(7)
        ref = reference_point(g, obj)
        traj = run_decentralized(g, obj, c, NoiseModel.fixed_norm(1e-3),
                                 ANALYSIS_FAITHFUL, 30, RandomStream(seed=9))
        with pytest.raises(ValueError, match="too short"):
            steady_state_check(traj, ref, 1e-3 * np.sqrt(g.n_nodes), g)


class TestEdcMetric:
    def test_zero_at_consensus(self):
        g, obj, spec, c = certified_setup(8)
        ref = reference_point(g, obj)
        traj = Trajectory(graph=g, c=c, xs=np.tile(ref.x_central, (3, g.n_nodes, 1)),
                          noise=NoiseModel.none(), stream=RandomStream(seed=10))
        assert np.allclose(edc_metric(traj, ref.x_central), 0.0, atol=1e-12)

    def test_direct_formula(self):
        g = Graph.from_edges(2, [(0, 1)])
        obj, _ = make_problem(2, 3, 1e-3, "well_conditioned", seed=11)
        traj = run_matrix_form(g, obj, 0.3, NoiseModel.none(), 1, RandomStream(seed=11))
        x_central = np.array([1.0, 0.0, 0.0])
        traj.xs[0] = np.array([[2.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        edc = edc_metric(traj, x_central)
        assert edc[0] == pytest.approx(0.5)  # node errors 1 and 0, averaged

    def test_mean_over_nodes(self):
        g, obj, spec, c = certified_setup(9)
        ref = reference_point(g, obj)
        traj = run_decentralized(g, obj, c, NoiseModel.gaussian(1e-3),
                                 ANALYSIS_FAITHFUL, 10, RandomStream(seed=12))
        edc = edc_metric(traj, ref.x_central)
        k = 5
        manual = np.mean([
            np.linalg.norm(traj.xs[k][i] - ref.x_central)
            for i in range(g.n_nodes)
        ]) / np.linalg.norm(ref.x_central)
        assert edc[k] == pytest.approx(manual, rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 9])
    def test_equals_whole_history_formula(self, dim):
        """Column adds over the squared history give the axis-2 sum's bits."""
        rng = np.random.default_rng(dim)
        g = gen_connected_graph(12, 0.4, seed=dim)
        xs = rng.standard_normal((40, 12, dim)) * rng.choice([1e-9, 1.0, 1e6], (40, 12, dim))
        x_central = rng.standard_normal(dim)
        traj = Trajectory(graph=g, c=0.5, xs=xs, noise=NoiseModel.none(),
                          stream=RandomStream(seed=0))
        d = xs - x_central
        per_node = np.sqrt(np.sum(d * d, axis=2)) / float(np.linalg.norm(x_central))
        assert np.array_equal(edc_metric(traj, x_central), per_node.mean(axis=1))

    def test_zero_centralized_norm_rejected(self):
        g, obj, spec, c = certified_setup(10)
        traj = run_matrix_form(g, obj, c, NoiseModel.none(), 1, RandomStream(seed=13))
        with pytest.raises(ValueError, match="zero norm"):
            edc_metric(traj, np.zeros(3))


class TestLightRecord:
    """A light record answers every series from the keyed stream, bit for bit the kept record's.

    N=20, rho=0.3 (114 arcs): the series walk 71-iteration blocks while the
    engine drew 409-iteration chunks, so K=150 re-draws across block edges
    the engine never had.
    """

    KINDS = [NoiseModel.none(), NoiseModel.gaussian(1e-3),
             NoiseModel.quantizer(1e-3), NoiseModel.fixed_norm(1e-3)]
    MAX_ITER = 150

    @pytest.fixture(scope="class")
    def instance(self):
        g, obj, spec, c = certified_setup(7, n_nodes=20)
        mu, _ = optimize_delta(spec, obj.m_f, obj.M_f, c)
        report = theory_constants(spec, obj.m_f, obj.M_f, c, mu)
        return g, obj, c, reference_point(g, obj), report

    @staticmethod
    def assert_same_answers(light, kept, ref, report):
        assert light.e_xs is None
        assert np.array_equal(light.errors(slice(None)), kept.errors(slice(None)))
        assert np.array_equal(gnorm_series(light, ref), gnorm_series(kept, ref))
        xerr = x_err_series(kept, ref)
        assert np.array_equal(error_gates(light, xerr), error_gates(kept, xerr))
        audits = [audit_contraction(traj, ref, report) for traj in (light, kept)]
        for name in ("ratios", "gates", "skipped", "checked", "x_bound_slack",
                     "contraction_violated", "x_bound_violated"):
            np.testing.assert_array_equal(*(getattr(a, name) for a in audits), err_msg=name)

    @pytest.mark.parametrize("mode", [ANALYSIS_FAITHFUL, BROADCAST])
    @pytest.mark.parametrize("model", KINDS, ids=lambda m: m.kind)
    def test_decentralized(self, instance, model, mode):
        g, obj, c, ref, report = instance
        light, kept = (run_decentralized(g, obj, c, model, mode, self.MAX_ITER,
                                         RandomStream(seed=8, trial=1, cell=2), record=record)
                       for record in ("light", "errors"))
        if model.kind in ("gaussian", "fixed_norm"):
            assert kept.e_xs is not None
        self.assert_same_answers(light, kept, ref, report)


def test_audit_series_build_no_arc_history():
    """gnorm, ||x - x*|| and the gate stream over k: the peak stays near one x history.

    At N=200 and rho=0.04 an arc-space (K+1, 2E, n) array is about eight x
    histories, so building even one breaks the bound.
    """
    g = gen_connected_graph(200, 0.04, seed=5)
    obj, _ = make_problem(200, 3, 1e-3, "well_conditioned", seed=6)
    ref = reference_point(g, obj)
    traj = run_decentralized(g, obj, 0.1, NoiseModel.fixed_norm(1e-3),
                             ANALYSIS_FAITHFUL, 1000, RandomStream(seed=7))
    tracemalloc.start()
    try:
        gnorm_series(traj, ref)
        error_gates(traj, x_err_series(traj, ref))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * traj.xs.nbytes


@pytest.mark.parametrize("series", ["x_err_series", "edc_metric"])
def test_distance_series_build_no_history_copy(series):
    """Each distance series walks the record in blocks and keeps the whole-history bits.

    K=5000, N=20, n=3: x is 2.4 MB, a block 409 iterations, so the series
    crosses twelve block edges; a whole-history ``xs - point`` temporary
    alone would peak at one x history.
    """
    rng = np.random.default_rng(3)
    g = gen_connected_graph(20, 0.3, seed=3)
    xs = rng.standard_normal((5001, 20, 3)) * rng.choice([1e-9, 1.0, 1e6], (5001, 20, 3))
    point = rng.standard_normal(3)
    traj = Trajectory(graph=g, c=0.5, xs=xs, noise=NoiseModel.none(),
                      stream=RandomStream(seed=0))
    d = xs - point
    if series == "x_err_series":
        fn = x_err_series
        arg = ReferencePoint(beta_star=None, x_central=point)
        whole = np.sqrt(np.sum(d * d, axis=(1, 2)))
    else:
        fn, arg = edc_metric, point
        whole = (np.sqrt(np.sum(d * d, axis=2)) / float(np.linalg.norm(point))).mean(axis=1)
    del d
    tracemalloc.start()
    try:
        got = fn(traj, arg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, whole)
    assert peak <= 0.5 * xs.nbytes
