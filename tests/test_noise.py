import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncadmm import noise
from ncadmm.analysis import derive_ez_block
from ncadmm.noise import (NoiseModel, RandomStream, fold_key, fold_lanes,
                          lane_states, polar_normals, sample_error_block,
                          uniforms)
from ncadmm.noise import _NOISE_DOMAIN
from ncadmm.topology import Graph, build_arc_matrices, gen_connected_graph


def masked_polar_normals(states, count):
    """The full-width sampler: every round tests all (lane, pair) slots, masked.

    Reference for :func:`polar_normals`, which must give the same bits.
    """
    scalar_in = np.asarray(states).ndim == 0
    st = np.atleast_1d(np.asarray(states, dtype=np.uint64))[:, None]
    pairs = (count + 1) // 2
    out = np.zeros((st.shape[0], 2 * pairs))
    pair_idx = np.arange(pairs, dtype=np.uint64)
    pending = np.ones((st.shape[0], pairs), dtype=bool)
    for attempt in range(noise._MAX_POLAR_ROUNDS):
        base = np.uint64(2) * (np.uint64(attempt) * np.uint64(pairs) + pair_idx)
        u = 2.0 * noise._uniform_block(st, base) - 1.0
        v = 2.0 * noise._uniform_block(st, base + np.uint64(1)) - 1.0
        s = u * u + v * v
        accept = pending & (s > 0.0) & (s < 1.0)
        f = np.sqrt(-2.0 * np.log(s[accept]) / s[accept])
        out[:, 0::2][accept] = u[accept] * f
        out[:, 1::2][accept] = v[accept] * f
        pending &= ~accept
        if not pending.any():
            break
    else:
        raise RuntimeError("polar sampling failed to accept after many rounds")
    result = out[:, :count]
    return result[0] if scalar_in else result


def stream(**kw):
    return RandomStream(seed=42, **kw)


def one_error(model, x, s, node=0, iteration=0):
    """The error on node ``node``'s value ``x`` at ``iteration``.

    Draws a block of ``node + 1`` rows, with ``x`` in row ``node``.
    """
    x = np.asarray(x, dtype=float)
    rows = np.zeros((node + 1, x.shape[0]))
    rows[node] = x
    return sample_error_block(model, rows, s, iteration)[node]


class TestKeyedRng:
    def test_fold_key_is_pure(self):
        assert fold_key(1, (2, 3)) == fold_key(1, (2, 3))

    def test_fold_key_separates_coordinates(self):
        keys = {fold_key(1, c) for c in [(0, 0), (0, 1), (1, 0), (0, 0, 0)]}
        assert len(keys) == 4

    def test_lane_states_match_scalar_fold(self):
        s = stream(trial=3, cell=2)
        nodes = np.arange(40)
        vec = lane_states(s, nodes, iteration=17)
        ref = [fold_key(42, (_NOISE_DOMAIN, 3, 2, int(v), 17)) for v in nodes]
        assert vec.tolist() == ref
        iterations = np.array([0, 17, 2 ** 40, 2 ** 64 - 1], dtype=np.uint64)
        grid = lane_states(s, nodes, iterations)
        assert grid.shape == (4, 40)
        for row, it in zip(grid, iterations):
            assert row.tolist() == [fold_key(42, (_NOISE_DOMAIN, 3, 2, int(v), int(it)))
                                    for v in nodes]

    @pytest.mark.parametrize("seed", [0, 7, -5, 2 ** 63, 2 ** 70])
    def test_fold_lanes_match_scalar_fold(self, seed):
        # the seed and the leading coordinates fold on exact Python integers:
        # a negative seed or one past 64 bits never enters the uint64 path
        coords = (2, 3)
        lane = np.array([0, 1, 199, 2 ** 40, 2 ** 64 - 1], dtype=np.uint64)
        states = fold_lanes(seed, coords, lane)
        assert states.dtype == np.uint64
        assert states.tolist() == [fold_key(seed, coords + (int(v),)) for v in lane]
        grid = fold_lanes(seed, coords, np.arange(3), lane[:, None])
        assert grid.shape == (5, 3)
        for row, v in zip(grid, lane):
            assert row.tolist() == [fold_key(seed, coords + (j, int(v))) for j in range(3)]

    def test_uniforms_per_state_match_keyed_uniforms(self):
        states = fold_lanes(9, (4,), np.arange(6))
        block = uniforms(states, 5)
        assert block.shape == (6, 5)
        for i, row in enumerate(block):
            assert np.array_equal(row, uniforms(fold_key(9, (4, i)), 5))

    def test_uniforms_in_unit_interval(self):
        u = uniforms(fold_key(7, (1, 2)), 10_000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_polar_normals_scalar_vs_lanes(self):
        states = np.array([fold_key(5, (i,)) for i in range(6)], dtype=np.uint64)
        for count in (1, 4, 5):
            block = polar_normals(states, count)
            assert np.array_equal(block, masked_polar_normals(states, count))
            for i, s in enumerate(states):
                one = polar_normals(s, count)
                assert np.array_equal(one, block[i])
                assert np.array_equal(one, masked_polar_normals(s, count))

    def test_uniform_block_matches_scalar_mix_at_edge_values(self):
        """The uint64 pipeline and its int64-view cast against exact Python integers."""
        edges = [0, 1, 2**53 - 1, 2**62, 2**63 - 2, 2**63 - 1, 2**63, 2**63 + 1,
                 2**64 - 2, 2**64 - 1]
        states = np.array(edges + [fold_key(9, (i,)) for i in range(4)], dtype=np.uint64)
        counters = np.array(edges, dtype=np.uint64)
        block = noise._uniform_block(states[:, None], counters)
        expected = [[(noise._mix(int(s) + (int(t) + 1) * noise._GOLDEN) >> 11) * 2.0 ** -53
                     for t in counters] for s in states]
        assert block.dtype == np.float64
        assert np.array_equal(block, np.array(expected))
        assert block.min() >= 0.0 and block.max() < 1.0

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 8])
    def test_polar_normals_match_masked_reference_over_many_rounds(self, monkeypatch, count):
        states = np.array([fold_key(8, (i,)) for i in range(1000)], dtype=np.uint64)
        block = polar_normals(states, count)
        assert block.shape == (1000, count)
        assert np.array_equal(block, masked_polar_normals(states, count))
        # some pair of this state set is accepted only in round 4 or later
        monkeypatch.setattr(noise, "_MAX_POLAR_ROUNDS", 3)
        with pytest.raises(RuntimeError, match="polar sampling failed to accept"):
            polar_normals(states, count)

    def test_polar_normals_keep_the_lane_grid_shape(self):
        grid = lane_states(stream(trial=2), np.arange(200), np.arange(40))
        block = polar_normals(grid, 3)
        assert block.shape == (40, 200, 3)
        flat = masked_polar_normals(grid.reshape(-1), 3)
        assert np.array_equal(block, flat.reshape(40, 200, 3))
        assert np.array_equal(block, polar_normals(grid.reshape(-1), 3).reshape(40, 200, 3))

    def test_polar_sampling_gives_up_after_its_round_limit(self, monkeypatch):
        monkeypatch.setattr(noise, "_MAX_POLAR_ROUNDS", 1)
        states = np.array([fold_key(6, (i,)) for i in range(1000)], dtype=np.uint64)
        with pytest.raises(RuntimeError, match="polar sampling failed to accept"):
            polar_normals(states, 2)

    def test_gaussian_moments(self):
        states = np.array([fold_key(11, (i,)) for i in range(50_000)], dtype=np.uint64)
        z = polar_normals(states, 2).ravel()
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.05


class TestNoiseModel:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown noise kind"):
            NoiseModel(kind="laplace")

    def test_rejects_negative_params(self):
        with pytest.raises(ValueError):
            NoiseModel(kind="gaussian", sigma_e=-1.0)

    def test_rejects_quantizer_with_zero_delta(self):
        # a zero step would leave every message exact: a silently noiseless run
        with pytest.raises(ValueError, match="positive delta"):
            NoiseModel.quantizer(0.0)

    def test_none_is_zero(self):
        e = one_error(NoiseModel.none(), np.ones(4), stream())
        assert np.array_equal(e, np.zeros(4))

    def test_gaussian_zero_sigma_degenerates(self):
        e = one_error(NoiseModel.gaussian(0.0), np.ones(3), stream())
        assert np.array_equal(e, np.zeros(3))

    def test_quantizer_rounding(self):
        q = NoiseModel.quantizer(0.5)
        assert one_error(q, np.array([0.74]), stream())[0] == pytest.approx(-0.24)
        assert one_error(q, np.array([0.76]), stream())[0] == pytest.approx(0.24)

    def test_quantizer_half_away_from_zero(self):
        q = NoiseModel.quantizer(1.0)
        assert one_error(q, np.array([0.5]), stream())[0] == pytest.approx(0.5)
        assert one_error(q, np.array([-0.5]), stream())[0] == pytest.approx(-0.5)

    def test_quantizer_error_bounded(self):
        q = NoiseModel.quantizer(0.2)
        xs = np.linspace(-7.3, 9.1, 2003).reshape(-1, 1)
        e = sample_error_block(q, xs, stream(), 0)
        assert np.all(np.abs(e) <= 0.1 + 1e-15)

    def test_fixed_norm_exact(self):
        e = one_error(NoiseModel.fixed_norm(0.01), np.zeros(7), stream())
        assert abs(np.linalg.norm(e) - 0.01) <= 1e-15

    def test_fixed_norm_one_dimensional(self):
        e = one_error(NoiseModel.fixed_norm(2.0), np.zeros(1), stream())
        assert abs(e[0]) == pytest.approx(2.0)

    def test_fixed_norm_divides_by_linalg_norm(self):
        iterations = np.arange(300)
        normals = polar_normals(lane_states(stream(), np.arange(20), iterations), 3)
        expected = 0.2 * (normals / np.linalg.norm(normals, axis=-1, keepdims=True))
        blk = sample_error_block(NoiseModel.fixed_norm(0.2), np.zeros((20, 3)), stream(),
                                 iterations)
        assert np.array_equal(blk, expected)

    def test_fixed_norm_all_zero_draw_falls_back_to_first_axis(self, monkeypatch):
        real = noise.polar_normals

        def one_zero_row(states, count):
            normals = real(states, count)
            normals[..., 1, :] = 0.0
            return normals

        monkeypatch.setattr(noise, "polar_normals", one_zero_row)
        for iteration in (4, np.arange(4, 7)):
            e = sample_error_block(NoiseModel.fixed_norm(0.5), np.zeros((3, 3)), stream(),
                                   iteration)
            assert np.all(e[..., 1, :] == [0.5, 0.0, 0.0])
            assert np.allclose(np.linalg.norm(e, axis=-1), 0.5, rtol=1e-15)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 9])
    @pytest.mark.parametrize("iteration", [6, np.arange(3, 40)], ids=["scalar", "chunk"])
    def test_random_kinds_equal_whole_row_formulas(self, dim, iteration):
        """Gaussian and fixed_norm blocks equal the broadcast row formulas bit for bit."""
        normals = polar_normals(lane_states(stream(), np.arange(20), iteration), dim)
        x = np.zeros((20, dim))
        gauss = sample_error_block(NoiseModel.gaussian(0.3), x, stream(), iteration)
        assert np.array_equal(gauss, 0.3 * normals)
        norms = np.sqrt(np.add.reduce(normals * normals, -1, keepdims=True))
        fixed = sample_error_block(NoiseModel.fixed_norm(0.2), x, stream(), iteration)
        assert np.array_equal(fixed, 0.2 * (normals / norms))
        assert fixed.flags.c_contiguous

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    def test_fixed_norm_zero_row_falls_back_at_any_dim(self, monkeypatch, dim):
        real = noise.polar_normals

        def zero_rows(states, count):
            normals = real(states, count)
            normals[..., ::3, :] = 0.0
            return normals

        monkeypatch.setattr(noise, "polar_normals", zero_rows)
        iterations = np.arange(5)
        normals = zero_rows(lane_states(stream(), np.arange(7), iterations), dim)
        norms = np.sqrt(np.add.reduce(normals * normals, -1, keepdims=True))
        positive = norms > 0.0
        expected = normals / np.where(positive, norms, 1.0)
        expected[~positive[..., 0]] = np.eye(dim)[0]
        e = sample_error_block(NoiseModel.fixed_norm(0.5), np.zeros((7, dim)), stream(),
                               iterations)
        assert np.array_equal(e, 0.5 * expected)
        assert np.all(e[:, ::3] == 0.5 * np.eye(dim)[0])

    @pytest.mark.parametrize("dim", range(1, 12))
    def test_sum_last_axis_is_np_sum(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.standard_normal((50, 30, dim)) * rng.choice([1e-8, 1.0, 1e8], (50, 30, dim))
        assert np.array_equal(noise.sum_last_axis(a), np.sum(a, axis=-1))
        assert np.array_equal(noise.sum_last_axis(a[0, 0]), np.sum(a[0, 0]))

    def test_quantizer_scalar_iteration_is_a_fresh_row_of_the_block(self):
        q = NoiseModel.quantizer(0.1)
        x = np.linspace(-1.234, 2.345, 21).reshape(7, 3)
        one = sample_error_block(q, x, stream(), 5)
        block = sample_error_block(q, x, stream(), np.arange(4, 7))
        assert np.array_equal(one, block[1])
        assert one.flags.writeable and one.flags.c_contiguous
        assert not np.shares_memory(one, x)
        assert not np.shares_memory(one, sample_error_block(q, x, stream(), 5))


class TestDeterminism:
    def test_same_coordinates_same_draw(self):
        m = NoiseModel.gaussian(1.0)
        a = one_error(m, np.zeros(3), stream(trial=1), node=4, iteration=9)
        b = one_error(m, np.zeros(3), stream(trial=1), node=4, iteration=9)
        assert np.array_equal(a, b)

    def test_distinct_coordinates_differ(self):
        m = NoiseModel.gaussian(1.0)
        base = dict(s=stream(trial=1, cell=1), node=1, iteration=1)
        variants = [{}, {"s": stream(trial=2, cell=1)}, {"s": stream(trial=1, cell=2)},
                    {"node": 2}, {"iteration": 2}]
        draws = [one_error(m, np.zeros(3), **{**base, **v}) for v in variants]
        flat = [tuple(d) for d in draws]
        assert len(set(flat)) == len(flat)

    def test_block_equals_per_node_stack(self):
        x = np.linspace(-1, 1, 15).reshape(5, 3)
        for m in (NoiseModel.gaussian(0.3), NoiseModel.fixed_norm(0.2),
                  NoiseModel.quantizer(0.1), NoiseModel.none()):
            blk = sample_error_block(m, x, stream(trial=2, cell=1), 6)
            rows = [one_error(m, x[i], stream(trial=2, cell=1), node=i, iteration=6)
                    for i in range(5)]
            assert np.array_equal(blk, np.stack(rows)), m.kind

    def test_iteration_range_equals_per_iteration_stack(self):
        x = np.zeros((7, 3))
        iterations = np.arange(5, 45)
        for m in (NoiseModel.gaussian(0.3), NoiseModel.fixed_norm(0.2)):
            blk = sample_error_block(m, x, stream(trial=1, cell=3), iterations)
            rows = [sample_error_block(m, x, stream(trial=1, cell=3), int(k))
                    for k in iterations]
            assert np.array_equal(blk, np.stack(rows)), m.kind

    def test_block_of_iterates_equals_per_iteration_stack(self):
        """A (K, N, n) block of iterates: the quantizer reads each, keyed kinds only the shape."""
        xs = np.linspace(-1.234, 2.345, 5 * 7 * 3).reshape(5, 7, 3)
        iterations = np.arange(10, 15)
        for m in (NoiseModel.gaussian(0.3), NoiseModel.fixed_norm(0.2),
                  NoiseModel.quantizer(0.1), NoiseModel.none()):
            blk = sample_error_block(m, xs, stream(trial=1, cell=3), iterations)
            rows = [sample_error_block(m, x, stream(trial=1, cell=3), int(k))
                    for x, k in zip(xs, iterations)]
            assert np.array_equal(blk, np.stack(rows)), m.kind

    def test_fold_key_children_independent(self):
        assert fold_key(1, (10, 0)) != fold_key(1, (10, 1)) != fold_key(1, (11, 0))


class TestDeriveEz:
    """The arc-space image of an error block, e_z = 0.5 * Mplus.T e_x (in ``analysis``)."""

    def test_zero_maps_to_zero(self):
        am = build_arc_matrices(Graph(2, [(0, 1)]))
        assert np.array_equal(derive_ez_block(np.zeros((2, 1)), am), np.zeros((2, 1)))

    def test_single_edge_average(self):
        am = build_arc_matrices(Graph(2, [(0, 1)]))
        e_z = derive_ez_block(np.array([[3.0], [5.0]]), am)
        assert e_z.tolist() == [[4.0], [4.0]]

    def test_rejects_bad_length(self):
        am = build_arc_matrices(Graph(3, [(0, 1), (1, 2)]))
        with pytest.raises(ValueError, match="node rows"):
            derive_ez_block(np.zeros((4, 1)), am)

    def test_linearity(self):
        g = gen_connected_graph(8, rho=0.5, seed=3)
        am = build_arc_matrices(g)
        u = polar_normals(fold_key(1, (0,)), 16).reshape(8, 2)
        v = polar_normals(fold_key(1, (1,)), 16).reshape(8, 2)
        lhs = derive_ez_block(2.0 * u - 3.0 * v, am)
        rhs = 2.0 * derive_ez_block(u, am) - 3.0 * derive_ez_block(v, am)
        assert np.allclose(lhs, rhs, atol=1e-14)

    def test_operator_norm_bound(self):
        g = gen_connected_graph(10, rho=0.4, seed=5)
        am = build_arc_matrices(g)
        sigma_max = np.linalg.svd(am.m_plus, compute_uv=False).max()
        for i in range(20):
            e_x = polar_normals(fold_key(2, (i,)), 20).reshape(10, 2)
            e_z = derive_ez_block(e_x, am)
            assert np.linalg.norm(e_z) <= 0.5 * sigma_max * np.linalg.norm(e_x) + 1e-12

    def test_block_version_matches(self):
        g = gen_connected_graph(6, rho=0.5, seed=2)
        am = build_arc_matrices(g)
        blocks = polar_normals(fold_key(3, (9,)), 6 * 2 * 4).reshape(4, 6, 2)
        stacked = derive_ez_block(blocks, am)
        for k in range(4):
            assert np.allclose(stacked[k], derive_ez_block(blocks[k], am), atol=0)


@settings(max_examples=50, deadline=None)
@given(sigma=st.floats(min_value=1e-6, max_value=10.0),
       node=st.integers(min_value=0, max_value=1000),
       iteration=st.integers(min_value=0, max_value=10_000))
def test_fixed_norm_property(sigma, node, iteration):
    e = one_error(NoiseModel.fixed_norm(sigma), np.zeros(4), RandomStream(seed=5),
                  node=node, iteration=iteration)
    assert np.linalg.norm(e) == pytest.approx(sigma, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(delta=st.floats(min_value=1e-3, max_value=100.0),
       value=st.floats(min_value=-1e6, max_value=1e6))
def test_quantizer_property(delta, value):
    e = one_error(NoiseModel.quantizer(delta), np.array([value]), RandomStream(seed=1))
    assert abs(e[0]) <= delta / 2 + 1e-9 * delta
    quantized = value + e[0]
    assert quantized / delta == pytest.approx(round(quantized / delta), abs=1e-6)
