"""Acceptance suite: one test per release criterion, budgets enforced.

Each test prints a PASS line with its headline numbers; run with
``pytest tests/test_acceptance.py -v -s`` to see them.  The full-scale
profile (criterion 9) takes minutes and only runs when NCADMM_ACCEPT_FULL=1.
"""

import json
import os
import time

import numpy as np
import pytest

from ncadmm.admm import (ANALYSIS_FAITHFUL, reference_point, run_decentralized,
                         run_matrix_form)
from ncadmm.analysis import (audit_contraction, edc_metric, gnorm_series,
                             optimize_delta, steady_state_check,
                             theory_constants)
from ncadmm.cli import main
from ncadmm.config import (AdmmConfig, ExperimentConfig, GraphConfig,
                           NoiseConfig, ProblemConfig)
from ncadmm.experiment import run_experiment
from ncadmm.noise import NoiseModel, RandomStream, fold_key, uniforms
from ncadmm.objective import make_problem
from ncadmm.topology import (Graph, build_arc_matrices, gen_connected_graph,
                             spectral_summary)

from test_admm import derive_alphas, per_step_arc_states

# Decay-window instrument for the qualitative sweep checks: the window ends
# at the last iteration above 10x the floor (floor = tail mean over the
# final 10%) and starts halfway through, targeting the asymptotic phase.
# Cells whose pre-floor decay is shorter than MIN_FIT_POINTS cannot be
# regressed and are reported as such.
MIN_FIT_POINTS = 5


def decay_fit(curve):
    """(floor, k_window, r_squared | None) for one mean-EDC curve."""
    floor = float(curve[-max(1, len(curve) // 10):].mean())
    above = np.nonzero(curve > 10.0 * floor)[0]
    k_end = int(above[-1]) if above.size else 0
    k_start = max(1, int(np.ceil(k_end / 2)))
    window = np.arange(k_start, k_end + 1)
    if window.size < MIN_FIT_POINTS:
        return floor, window, None
    y = np.log(curve[window])
    design = np.vstack([window, np.ones_like(window)]).T
    _, rss, *_ = np.linalg.lstsq(design, y, rcond=None)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float(rss[0]) / ss_tot if rss.size and ss_tot > 0 else 1.0
    return floor, window, r2


def test_criterion_1_structural_identities():
    """100 random graphs: exact Gram identities and the degree bound."""
    start = time.monotonic()
    u = uniforms(fold_key(1001, (0,)), 200)
    for t in range(100):
        n = 5 + int(u[2 * t] * 46)  # 5..50
        rho_min = (n - 1) / (n * (n - 1) / 2)
        rho = max(0.05, 1.05 * rho_min)
        rho = rho + u[2 * t + 1] * (1.0 - rho)
        g = gen_connected_graph(n, rho, seed=t)
        am = build_arc_matrices(g)
        adj = np.zeros((n, n))
        for i, j in g.edges:
            adj[i, j] = adj[j, i] = 1.0
        deg = np.diag(adj.sum(axis=1))
        assert np.array_equal(0.5 * am.m_plus @ am.m_plus.T, deg + adj)
        assert np.array_equal(0.5 * am.m_minus @ am.m_minus.T, deg - adj)
        # lambda_max(D + W) = 0.5 * sigma_max_mplus**2 <= 2 * d_max
        s = spectral_summary(am)
        assert 0.5 * s.sigma_max_mplus**2 <= 2.0 * s.max_degree * (1.0 + 1e-9)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\n[criterion 1] PASS: 100 graphs, identities exact, "
          f"degree bound holds ({elapsed:.1f}s)")


def test_criterion_2_oracle_equivalence():
    """Per-node protocol vs. stacked recursion: entrywise 1e-10 agreement."""
    start = time.monotonic()
    models = [NoiseModel.none(), NoiseModel.gaussian(1e-2),
              NoiseModel.fixed_norm(1e-2), NoiseModel.quantizer(1e-3)]
    worst = 0.0
    u = uniforms(fold_key(2002, (0,)), 60)
    for t in range(20):
        n = 5 + int(u[3 * t] * 21)  # 5..25
        rho = 0.25 + 0.5 * u[3 * t + 1]
        c = 0.05 + 1.45 * u[3 * t + 2]
        design = "well_conditioned" if t % 2 else "gaussian"
        g = gen_connected_graph(n, rho, seed=t + 50)
        obj, _ = make_problem(n, 3, 1e-3, design, seed=t + 950)
        stream = RandomStream(seed=t + 13)
        model = models[t % len(models)]
        td = run_decentralized(g, obj, c, model, ANALYSIS_FAITHFUL, 200, stream)
        tm = run_matrix_form(g, obj, c, model, 200, stream)
        duals = (derive_alphas(td, ANALYSIS_FAITHFUL), derive_alphas(tm, ANALYSIS_FAITHFUL))
        for a, b in ((td.xs, tm.xs), duals):
            worst = max(worst, float(np.max(np.abs(a - b))))
        for (zd, bd), (zm, bm) in zip(per_step_arc_states(td), per_step_arc_states(tm)):
            worst = max(worst, float(np.max(np.abs(zd - zm))),
                        float(np.max(np.abs(bd - bm))))
        assert worst < 1e-10, (t, model.kind, worst)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\n[criterion 2] PASS: 20 configs x 200 iters, "
          f"max deviation {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_3_noiseless_convergence():
    """N=20 rho=0.2 well-conditioned c=0.5: EDC < 1e-8 and monotone decrease."""
    start = time.monotonic()
    g = gen_connected_graph(20, 0.2, seed=0)
    obj, _ = make_problem(20, 3, 1e-3, "well_conditioned", seed=900)
    ref = reference_point(g, obj)
    traj = run_decentralized(g, obj, 0.5, NoiseModel.none(), ANALYSIS_FAITHFUL,
                             1000, RandomStream(seed=0))
    edc = edc_metric(traj, ref.x_central)
    assert edc[-1] < 1e-8
    gnorm = gnorm_series(traj, ref)
    above_floor = gnorm[:-1] > 1e-20
    assert np.all(np.diff(gnorm)[above_floor] < 0.0)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"\n[criterion 3] PASS: final EDC {edc[-1]:.2e}, "
          f"G-norm strictly decreasing to floor {gnorm[-1]:.1e} ({elapsed:.1f}s)")


def test_criterion_4_contraction_certification():
    """Zero certified-bound violations over 50 seeds, noiseless and gated."""
    start = time.monotonic()
    total_checked = 0
    for seed in range(50):
        g = gen_connected_graph(12, 0.3, seed=seed)
        obj, _ = make_problem(12, 3, 1e-3, "well_conditioned", seed=seed + 5000)
        spec = spectral_summary(build_arc_matrices(g))
        c = obj.m_f / max(spec.sigma_max_mplus ** 2, spec.sigma_max_mplus)
        mu_star, delta_star = optimize_delta(spec, obj.m_f, obj.M_f, c)
        report = theory_constants(spec, obj.m_f, obj.M_f, c, mu_star)
        assert report.cond_squared and report.cond_linear and delta_star > 0.0
        ref = reference_point(g, obj)
        for model in (NoiseModel.none(), NoiseModel.fixed_norm(1e-3)):
            traj = run_decentralized(g, obj, c, model, ANALYSIS_FAITHFUL,
                                     250, RandomStream(seed=seed))
            audit = audit_contraction(traj, ref, report)
            violated = audit.contraction_violated | audit.x_bound_violated
            assert not violated.any(), (
                seed, model.kind, np.flatnonzero(audit.contraction_violated),
                np.flatnonzero(audit.x_bound_violated))
            total_checked += int(audit.checked.sum())
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"\n[criterion 4] PASS: 50 seeds x 2 runs, {total_checked} gated "
          f"iterations checked, zero violations ({elapsed:.1f}s)")


def test_criterion_5_theory_constants_reference_values():
    """Certificate constants on the 3-node path, frozen via an independent
    40-digit evaluation of the closed forms."""
    s = spectral_summary(build_arc_matrices(Graph.from_edges(3, [(0, 1), (1, 2)])))
    r = theory_constants(s, m_f=1.0, M_f=1.0, c=0.1, mu=2.0)
    assert r.a == pytest.approx(23.75, rel=1e-12)
    assert r.b == pytest.approx(12.0, rel=1e-12)
    assert r.delta == pytest.approx(0.036948442646772256635, rel=1e-12)
    assert r.x_bound_coeff == pytest.approx(1.4285714285714285714, rel=1e-12)
    print("\n[criterion 5] PASS: a=23.75 b=12 delta=0.0369484426 "
          "x_bound_coeff=1.428571 reproduced to 1e-12")


def test_criterion_6_steady_state_bounds():
    """Constant-norm noise: tail error under max_degree * sigma_e on all runs."""
    start = time.monotonic()
    sqrt_holds = 0
    runs = 0
    for seed in range(20):
        g = gen_connected_graph(20, 0.3, seed=seed + 300)
        obj, _ = make_problem(20, 3, 1e-3, "well_conditioned", seed=seed + 7000)
        spec = spectral_summary(build_arc_matrices(g))
        c = 2.0 * obj.m_f / max(spec.sigma_max_mplus ** 2, spec.sigma_max_mplus)
        ref = reference_point(g, obj)
        for sigma_e in (1e-3, 1e-2):
            # per-node norm sigma_e/sqrt(N) makes the stacked error norm
            # exactly sigma_e every iteration
            model = NoiseModel.fixed_norm(sigma_e / np.sqrt(g.n_nodes))
            traj = run_decentralized(g, obj, c, model, ANALYSIS_FAITHFUL,
                                     5000, RandomStream(seed=seed))
            res = steady_state_check(traj, ref, sigma_e, g)
            assert res.tail_mean <= res.bound_stated, (seed, sigma_e, res)
            sqrt_holds += int(res.holds)
            runs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"\n[criterion 6] PASS: stated bound holds on {runs}/{runs} runs; "
          f"sqrt bound held on {sqrt_holds}/{runs} ({elapsed:.1f}s)")


def test_criterion_7_qualitative_sweep():
    """Desk-scale sweep: decay-to-floor shape, floor ordering, floors under
    sigma_e, and log-affine pre-floor decay where the decay is long enough
    to regress."""
    start = time.monotonic()
    cfg = ExperimentConfig(
        seed=20250809, trials=20,
        graph=GraphConfig(n_nodes=50, rho=0.1),
        problem=ProblemConfig(dim=3, obs_noise_var=1e-3,
                              design_kind="well_conditioned"),
        admm=AdmmConfig(c=(0.1, 1.0), max_iter=500),
        noise=NoiseConfig(model="gaussian", sigma_e=(1e-3, 1e-2)),
    )
    res = run_experiment(cfg, jobs=4, quiet=True)
    floors = {}
    fits = {}
    for i, (c, sigma_e) in enumerate(res.cells):
        curve = res.mean[i]
        floor, window, r2 = decay_fit(curve)
        floors[(c, sigma_e)] = floor
        fits[(c, sigma_e)] = r2
        # (a) decays by at least an order of magnitude, then flattens: the
        # final fifth of the run stays within a factor 2 of the floor
        assert curve[0] > 10.0 * floor
        tail = curve[-(len(curve) // 5):]
        assert np.all(tail <= 2.0 * floor) and np.all(tail >= 0.5 * floor)
        # (c) final mean error below the noise scale
        assert curve[-1] < sigma_e, (c, sigma_e, curve[-1])
    # (b) floors ordered by sigma_e at fixed c
    for c in cfg.admm.c:
        assert floors[(c, 1e-3)] < floors[(c, 1e-2)]
    # (d) measurable cells decay log-affinely; the low-c high-noise cell
    # floors within a few iterations and is reported, not regressed
    measurable = {cell: r2 for cell, r2 in fits.items() if r2 is not None}
    assert {(0.1, 1e-3), (1.0, 1e-3)} <= set(measurable)
    for cell, r2 in measurable.items():
        assert r2 >= 0.98, (cell, r2)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    skipped = [cell for cell, r2 in fits.items() if r2 is None]
    print(f"\n[criterion 7] PASS: floors {['%.1e' % floors[c] for c in res.cells]}, "
          f"R2 {['%.4f' % measurable[c] for c in sorted(measurable)]}, "
          f"too-short-to-fit {skipped} ({elapsed:.1f}s)")


def test_criterion_8_determinism(tmp_path):
    """Byte-identical sweep CSV across invocations and job counts."""
    doc = {
        "seed": 404, "trials": 4,
        "graph": {"n_nodes": 12, "rho": 0.35},
        "problem": {"dim": 2, "obs_noise_var": 1e-3,
                    "design_kind": "well_conditioned"},
        "admm": {"c": [0.3], "max_iter": 150},
        "noise": {"model": "gaussian", "sigma_e": [1e-3, 1e-2]},
        "output": {"csv_path": str(tmp_path / "det.csv"), "svg_path": None},
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(doc))
    digests = []
    for args in (["--jobs", "1"], ["--jobs", "1"], ["--jobs", "8"]):
        assert main(["experiment", "--config", str(cfg_path), *args]) == 0
        digests.append((tmp_path / "det.csv").read_bytes())
    assert digests[0] == digests[1] == digests[2]
    print(f"\n[criterion 8] PASS: {len(digests[0])} CSV bytes identical "
          "across reruns and --jobs 8")


@pytest.mark.skipif(os.environ.get("NCADMM_ACCEPT_FULL") != "1",
                    reason="full-scale profile: set NCADMM_ACCEPT_FULL=1 (runs ~10 min)")
def test_criterion_9_full_scale_profile():
    """200 nodes, rho=0.04, 100 trials: completes and repeats the desk-scale
    qualitative checks."""
    start = time.monotonic()
    cfg = ExperimentConfig(
        seed=20250809, trials=100,
        graph=GraphConfig(n_nodes=200, rho=0.04),
        problem=ProblemConfig(dim=3, obs_noise_var=1e-3, design_kind="gaussian"),
        admm=AdmmConfig(c=(0.1, 1.0), max_iter=800),
        noise=NoiseConfig(model="gaussian", sigma_e=(1e-3, 1e-2)),
    )
    res = run_experiment(cfg, jobs=8, quiet=True)
    floors = {}
    failures = []
    for i, (c, sigma_e) in enumerate(res.cells):
        curve = res.mean[i]
        floor, window, r2 = decay_fit(curve)
        floors[(c, sigma_e)] = floor
        assert curve[0] > 10.0 * floor
        tail = curve[-(len(curve) // 5):]
        assert np.all(tail <= 2.0 * floor) and np.all(tail >= 0.5 * floor)
        assert curve[-1] < sigma_e
        if r2 is not None and r2 < 0.98:
            failures.append(((c, sigma_e), r2))
    for c in cfg.admm.c:
        assert floors[(c, 1e-3)] < floors[(c, 1e-2)]
    elapsed = time.monotonic() - start
    assert elapsed < 1800.0
    assert not failures, (
        "log-affinity below threshold on the ill-conditioned random-design "
        f"profile: {failures}")
    print(f"\n[criterion 9] PASS ({elapsed:.0f}s)")
