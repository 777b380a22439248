import numpy as np
import pytest

from ncadmm.noise import keyed_normals, keyed_uniforms
from ncadmm.objective import (_PROBLEM_DOMAIN, _TAG_DESIGN, _TAG_OBS_NOISE,
                              _TAG_SINGULAR, _TAG_TRUE_X, ObjectiveSet,
                              make_problem)


def problem_normals(seed, tags, count):
    """Normals on the problem-generation domain, as ``make_problem`` draws them."""
    return keyed_normals(seed, (_PROBLEM_DOMAIN, *tags), count)


def one_node(design, obs):
    """A one-node stack holding the single local 0.5 * ||obs - design x||^2."""
    return ObjectiveSet.from_data(np.asarray(design)[None], np.asarray(obs)[None])


def random_local(seed, m=3, n=3):
    design = problem_normals(seed, (100,), m * n).reshape(m, n)
    obs = problem_normals(seed, (101,), m)
    return one_node(design, obs)


def value(obj, x):
    """0.5 * ||y - M x||^2 of a one-node stack, from its data."""
    r = obj.observations[0] - obj.designs[0] @ x
    return 0.5 * float(r @ r)


def per_node_problem(n_nodes, dim, obs_noise_var, design_kind, seed):
    """The generator drawing one node at a time, each from its own scalar
    substream (seed, problem-domain, tag, i); ``make_problem`` must give
    the same bits."""
    true_x = keyed_normals(seed, (_PROBLEM_DOMAIN, _TAG_TRUE_X), dim)
    sigma_obs = float(np.sqrt(obs_noise_var))
    designs, observations, grams, rhs, lo, hi = [], [], [], [], [], []
    for i in range(n_nodes):
        m = problem_normals(seed, (_TAG_DESIGN, i), dim * dim).reshape(dim, dim)
        if design_kind == "well_conditioned":
            q, r = np.linalg.qr(m)
            q = q * np.sign(np.diag(r))
            s = 1.0 + keyed_uniforms(seed, (_PROBLEM_DOMAIN, _TAG_SINGULAR, i), dim)
            m = q @ np.diag(s)
        y = m @ true_x + sigma_obs * problem_normals(seed, (_TAG_OBS_NOISE, i), dim)
        gram = m.T @ m
        w = np.linalg.eigvalsh(gram)
        designs.append(m)
        observations.append(y)
        grams.append(gram)
        rhs.append(m.T @ y)
        lo.append(float(max(w[0], 0.0)))
        hi.append(float(w[-1]))
    return (np.stack(designs), np.stack(observations), np.stack(grams),
            np.stack(rhs), true_x, min(lo), max(hi))


class TestQuadraticLocal:
    def test_gradient_identity_design(self):
        obj = one_node(np.eye(2), np.zeros(2))
        assert obj.gradient_stack(np.array([[1.0, 2.0]])).tolist() == [[1.0, 2.0]]

    def test_gradient_vanishes_at_local_optimum(self):
        obj = one_node(np.eye(2), np.ones(2))
        assert obj.gradient_stack(np.ones((1, 2))).tolist() == [[0.0, 0.0]]

    def test_gradient_matches_finite_differences(self):
        obj = random_local(3)
        x = problem_normals(9, (1,), 3)
        grad = obj.gradient_stack(x[None])[0]
        h = 1e-6
        for j in range(3):
            step = np.zeros(3)
            step[j] = h
            fd = (value(obj, x + step) - value(obj, x - step)) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_gradient_rejects_bad_shape(self):
        obj = random_local(1)
        with pytest.raises(ValueError):
            obj.gradient_stack(np.zeros((1, 4)))

    def test_moduli_by_inspection(self):
        obj = one_node(np.diag([1.0, 2.0]), np.zeros(2))
        assert (obj.m_f, obj.M_f) == (1.0, 4.0)

    @pytest.mark.parametrize("designs, observations", [
        (np.zeros((2, 3, 2)), np.zeros((2, 2))),
        (np.zeros((3, 2)), np.zeros(3)),
        (np.zeros((0, 2, 2)), np.zeros((0, 2))),
    ])
    def test_from_data_rejects_bad_stacks(self, designs, observations):
        with pytest.raises(ValueError):
            ObjectiveSet.from_data(designs, observations)


class TestObjectiveSet:
    def test_identity_designs(self):
        obj = ObjectiveSet.from_data(np.tile(np.eye(2), (4, 1, 1)), np.zeros((4, 2)))
        assert (obj.m_f, obj.M_f) == (1.0, 1.0)

    def test_single_node_diag(self):
        obj = one_node(np.diag([1.0, 2.0]), np.zeros(2))
        assert (obj.m_f, obj.M_f) == (1.0, 4.0)

    def test_moduli_bracket_rayleigh_quotient(self):
        obj, _ = make_problem(5, 3, 1e-3, "gaussian", seed=6)
        for i in range(10):
            d = problem_normals(50, (i,), 5 * 3).reshape(5, 3)
            num = sum(float(d[j] @ obj.grams[j] @ d[j]) for j in range(5))
            den = float(np.sum(d * d))
            q = num / den
            assert obj.m_f - 1e-10 <= q <= obj.M_f + 1e-10

    def test_centralized_two_scalar_nodes(self):
        obj = ObjectiveSet.from_data(np.ones((2, 1, 1)), np.array([[1.0], [3.0]]))
        assert obj.centralized_solution()[0] == pytest.approx(2.0)

    def test_centralized_single_node(self):
        obj = random_local(4)
        x = obj.centralized_solution()
        assert np.allclose(obj.gradient_stack(x[None]), 0.0, atol=1e-10)

    def test_centralized_gradient_vanishes(self):
        obj, _ = make_problem(6, 3, 1e-3, "gaussian", seed=9)
        x = obj.centralized_solution()
        total = obj.gradient_stack(np.tile(x, (6, 1))).sum(axis=0)
        assert np.linalg.norm(total) < 1e-9

    def test_centralized_matches_stacked_lstsq(self):
        for n_nodes, dim, seed in [(2, 2, 1), (3, 2, 2), (3, 1, 3)]:
            obj, _ = make_problem(n_nodes, dim, 1e-2, "gaussian", seed=seed)
            stacked_m = obj.designs.reshape(-1, dim)
            stacked_y = obj.observations.reshape(-1)
            expect, *_ = np.linalg.lstsq(stacked_m, stacked_y, rcond=None)
            assert np.allclose(obj.centralized_solution(), expect, atol=1e-10)

    def test_singular_aggregate_rejected(self):
        obj = ObjectiveSet.from_data(np.zeros((2, 2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            obj.centralized_solution()


class TestMakeProblem:
    def test_shapes_and_reproducibility(self):
        obj, x = make_problem(4, 3, 1e-3, "gaussian", seed=5)
        obj2, x2 = make_problem(4, 3, 1e-3, "gaussian", seed=5)
        assert x.shape == (3,)
        assert obj.n_nodes == 4
        assert np.array_equal(x, x2)
        assert np.array_equal(obj.designs, obj2.designs)

    def test_well_conditioned_moduli(self):
        for seed in range(5):
            obj, _ = make_problem(6, 3, 1e-3, "well_conditioned", seed=seed)
            assert obj.m_f >= 1.0 - 1e-12
            assert obj.M_f <= 4.0 + 1e-12

    def test_noiseless_observations_recover_truth(self):
        obj, x = make_problem(5, 3, 0.0, "gaussian", seed=8)
        assert np.allclose(obj.centralized_solution(), x, atol=1e-9)
        for design, observation in zip(obj.designs, obj.observations):
            assert np.allclose(observation, design @ x, atol=0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="design kind"):
            make_problem(3, 2, 0.0, "sparse", seed=1)

    @pytest.mark.parametrize("design_kind", ["gaussian", "well_conditioned"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    @pytest.mark.parametrize("n_nodes", [1, 7, 200])
    def test_matches_per_node_draws(self, n_nodes, dim, design_kind):
        obj, true_x = make_problem(n_nodes, dim, 1e-3, design_kind, seed=31 + dim)
        designs, observations, grams, rhs, ref_x, m_f, M_f = per_node_problem(
            n_nodes, dim, 1e-3, design_kind, seed=31 + dim)
        assert np.array_equal(obj.designs, designs)
        assert np.array_equal(obj.observations, observations)
        assert np.array_equal(obj.grams, grams)
        assert np.array_equal(obj.rhs, rhs)
        assert np.array_equal(true_x, ref_x)
        assert (obj.m_f, obj.M_f) == (m_f, M_f)
        # the pooled sums add the nodes in order, as a running sum does
        x = np.linalg.solve(sum(grams), sum(rhs))
        assert np.array_equal(obj.centralized_solution(), x)
