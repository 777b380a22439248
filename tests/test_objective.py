import numpy as np
import pytest

from ncadmm.noise import keyed_normals
from ncadmm.objective import _PROBLEM_DOMAIN, ObjectiveSet, QuadraticLocal, make_problem


def problem_normals(seed, tags, count):
    """Normals on the problem-generation domain, as ``make_problem`` draws them."""
    return keyed_normals(seed, (_PROBLEM_DOMAIN, *tags), count)


def random_local(seed, m=3, n=3):
    design = problem_normals(seed, (100,), m * n).reshape(m, n)
    obs = problem_normals(seed, (101,), m)
    return QuadraticLocal.from_data(design, obs)


class TestQuadraticLocal:
    def test_gradient_identity_design(self):
        loc = QuadraticLocal.from_data(np.eye(2), np.zeros(2))
        assert loc.gradient(np.array([1.0, 2.0])).tolist() == [1.0, 2.0]

    def test_gradient_vanishes_at_local_optimum(self):
        loc = QuadraticLocal.from_data(np.eye(2), np.ones(2))
        assert loc.gradient(np.ones(2)).tolist() == [0.0, 0.0]

    def test_gradient_matches_finite_differences(self):
        loc = random_local(3)
        x = problem_normals(9, (1,), 3)
        grad = loc.gradient(x)
        h = 1e-6
        for j in range(3):
            step = np.zeros(3)
            step[j] = h
            fd = (loc.value(x + step) - loc.value(x - step)) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_gradient_rejects_bad_shape(self):
        loc = random_local(1)
        with pytest.raises(ValueError):
            loc.gradient(np.zeros(4))

    def test_moduli_by_inspection(self):
        loc = QuadraticLocal.from_data(np.diag([1.0, 2.0]), np.zeros(2))
        assert loc.moduli() == (1.0, 4.0)


class TestObjectiveSet:
    def test_identity_designs(self):
        obj = ObjectiveSet.from_locals(
            [QuadraticLocal.from_data(np.eye(2), np.zeros(2)) for _ in range(4)])
        assert (obj.m_f, obj.M_f) == (1.0, 1.0)

    def test_single_node_diag(self):
        obj = ObjectiveSet.from_locals(
            [QuadraticLocal.from_data(np.diag([1.0, 2.0]), np.zeros(2))])
        assert (obj.m_f, obj.M_f) == (1.0, 4.0)

    def test_moduli_bracket_rayleigh_quotient(self):
        obj, _ = make_problem(5, 3, 1e-3, "gaussian", seed=6)
        for i in range(10):
            d = problem_normals(50, (i,), 5 * 3).reshape(5, 3)
            num = sum(float(d[j] @ obj.locals[j].gram @ d[j]) for j in range(5))
            den = float(np.sum(d * d))
            q = num / den
            assert obj.m_f - 1e-10 <= q <= obj.M_f + 1e-10

    def test_centralized_two_scalar_nodes(self):
        locs = [QuadraticLocal.from_data(np.array([[1.0]]), np.array([v]))
                for v in (1.0, 3.0)]
        obj = ObjectiveSet.from_locals(locs)
        assert obj.centralized_solution()[0] == pytest.approx(2.0)

    def test_centralized_single_node(self):
        loc = random_local(4)
        obj = ObjectiveSet.from_locals([loc])
        x = obj.centralized_solution()
        assert np.allclose(loc.gradient(x), 0.0, atol=1e-10)

    def test_centralized_gradient_vanishes(self):
        obj, _ = make_problem(6, 3, 1e-3, "gaussian", seed=9)
        x = obj.centralized_solution()
        total = sum(loc.gradient(x) for loc in obj.locals)
        assert np.linalg.norm(total) < 1e-9

    def test_centralized_matches_stacked_lstsq(self):
        for n_nodes, dim, seed in [(2, 2, 1), (3, 2, 2), (3, 1, 3)]:
            obj, _ = make_problem(n_nodes, dim, 1e-2, "gaussian", seed=seed)
            stacked_m = np.vstack([loc.design for loc in obj.locals])
            stacked_y = np.concatenate([loc.observation for loc in obj.locals])
            expect, *_ = np.linalg.lstsq(stacked_m, stacked_y, rcond=None)
            assert np.allclose(obj.centralized_solution(), expect, atol=1e-10)

    def test_singular_aggregate_rejected(self):
        zero = QuadraticLocal.from_data(np.zeros((2, 2)), np.zeros(2))
        obj = ObjectiveSet.from_locals([zero, zero])
        with pytest.raises(ValueError):
            obj.centralized_solution()


class TestMakeProblem:
    def test_shapes_and_reproducibility(self):
        obj, x = make_problem(4, 3, 1e-3, "gaussian", seed=5)
        obj2, x2 = make_problem(4, 3, 1e-3, "gaussian", seed=5)
        assert x.shape == (3,)
        assert obj.n_nodes == 4
        assert np.array_equal(x, x2)
        assert all(np.array_equal(a.design, b.design)
                   for a, b in zip(obj.locals, obj2.locals))

    def test_well_conditioned_moduli(self):
        for seed in range(5):
            obj, _ = make_problem(6, 3, 1e-3, "well_conditioned", seed=seed)
            assert obj.m_f >= 1.0 - 1e-12
            assert obj.M_f <= 4.0 + 1e-12

    def test_noiseless_observations_recover_truth(self):
        obj, x = make_problem(5, 3, 0.0, "gaussian", seed=8)
        assert np.allclose(obj.centralized_solution(), x, atol=1e-9)
        for loc in obj.locals:
            assert np.allclose(loc.observation, loc.design @ x, atol=0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="design kind"):
            make_problem(3, 2, 0.0, "sparse", seed=1)

