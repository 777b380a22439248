import numpy as np
import pytest

from ncadmm import topology
from ncadmm.noise import fold_key, polar_normals, uniforms
from ncadmm.topology import (DEFAULT_MAX_RETRIES, Graph,
                             GraphConnectivityError, build_arc_matrices,
                             gen_connected_graph, spectral_summary)


def all_pairs_sampler(n_nodes, rho, seed):
    """Reference sampler: a partial Fisher-Yates shuffle of the list of all
    N(N-1)/2 pairs, retried until connected."""
    all_edges = [(i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes)]
    m = len(all_edges)
    n_edges = int(np.floor(rho * m + 0.5))
    for attempt in range(DEFAULT_MAX_RETRIES):
        u = uniforms(fold_key(seed, (topology._GRAPH_DOMAIN, attempt)), n_edges)
        idx = list(range(m))
        for t in range(n_edges):
            r = t + int(u[t] * (m - t))
            idx[t], idx[r] = idx[r], idx[t]
        chosen = sorted(all_edges[k] for k in idx[:n_edges])
        parent = list(range(n_nodes))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        for i, j in chosen:
            parent[find(i)] = find(j)
        if len({find(v) for v in range(n_nodes)}) == 1:
            return tuple(chosen)
    raise AssertionError("no connected sample")


def union_find_connected(n_nodes, edges):
    """Reference connectivity check: a union-find over every edge."""
    parent = list(range(n_nodes))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        parent[find(i)] = find(j)
    root = find(0)
    return all(find(v) == root for v in range(n_nodes))


def per_edge_check(n_nodes, edges):
    """Reference validation: the per-edge loop over (i, j) pairs that Graph
    ran before it held an array.  The message Graph must raise, or None."""
    prev = None
    for i, j in edges:
        if not (0 <= i < j < n_nodes):
            return f"edge ({i}, {j}) is not canonical (need 0 <= i < j < N)"
        if prev is not None and (i, j) <= prev:
            return "edges must be sorted and unique"
        prev = (i, j)
    return None if union_find_connected(n_nodes, edges) else "graph is not connected"


def edge_array(edges):
    return np.array(edges, dtype=np.intp).reshape(-1, 2)


def path3():
    return Graph(3, [(0, 1), (1, 2)])


def triangle():
    return Graph(3, [(0, 1), (0, 2), (1, 2)])


class TestGraph:
    def test_rejects_single_node(self):
        with pytest.raises(ValueError):
            Graph(n_nodes=1, edges=())

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match=r"edge \(0, 0\) is not canonical"):
            Graph(3, [(0, 0), (0, 1), (1, 2)])

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="graph is not connected"):
            Graph(4, [(0, 1), (2, 3)])

    @pytest.mark.parametrize("edges, message", [
        ([(1, 0), (1, 2)], r"edge \(1, 0\) is not canonical"),
        ([(0, 1), (1, 3)], r"edge \(1, 3\) is not canonical"),
        ([(0, 2), (0, 1), (1, 1)], "sorted and unique"),
        ([(0, 1), (0, 1), (1, 2)], "sorted and unique"),
        ([(0, 1), (1, 2), (0, 2)], "sorted and unique"),
        ([(0, 1), (1, 2, 0)], "inhomogeneous"),
        ([0, 1, 1, 2], r"shape \(E, 2\), got \(4,\)"),
        ([], r"shape \(E, 2\), got \(0,\)"),
        ([(0, 1, 2)], r"shape \(E, 2\), got \(1, 3\)"),
    ])
    def test_rejects_non_canonical_edges_at_the_first_offender(self, edges, message):
        with pytest.raises(ValueError, match=message):
            Graph(n_nodes=3, edges=tuple(edges))

    @pytest.mark.parametrize("edges", [
        ((0, 1.5), (1, 2)),
        np.array([[0.0, 1.0], [1.0, 2.0]]),
        ((0, 2**70), (1, 2)),
        np.array([[False, True], [True, True]]),
    ])
    def test_rejects_non_integer_edges(self, edges):
        with pytest.raises(ValueError, match="edges must be integers, got dtype"):
            Graph(3, edges)

    def test_edges_are_a_read_only_intp_copy(self):
        for dtype in (np.intp, np.int32, np.uint16):
            caller = np.array([[0, 1], [1, 2]], dtype=dtype)
            g = Graph(n_nodes=3, edges=caller)
            assert g.edges.dtype == np.intp
            assert not g.edges.flags.writeable
            assert not np.shares_memory(g.edges, caller)
            caller[1, 0] = 0  # the caller's array stays writeable and apart
            assert g.edges.tolist() == [[0, 1], [1, 2]]
            with pytest.raises(ValueError, match="read-only"):
                g.edges[1, 0] = 0

    def test_arc_tails_are_a_view_of_the_edges(self):
        g = gen_connected_graph(12, rho=0.3, seed=1)
        assert np.shares_memory(build_arc_matrices(g).tail, g.edges)

    def test_agrees_with_the_per_edge_check(self):
        """Sampler draws and their shuffled, duplicated and out-of-range
        variants: Graph accepts the same lists and names the same offender."""
        rng = np.random.default_rng(11)
        lists = []
        for n_nodes, rho, seed in ((2, 1.0, 0), (5, 0.6, 1), (12, 0.25, 2), (30, 0.1, 3)):
            base = gen_connected_graph(n_nodes, rho, seed).edges.tolist()
            n_edges = len(base)
            lists.append((n_nodes, base))
            for _ in range(30):
                edges = [list(e) for e in base]
                kind = rng.integers(6)
                k = int(rng.integers(n_edges))
                if kind == 0:    # shuffled rows
                    edges = [edges[t] for t in rng.permutation(n_edges)]
                elif kind == 1:  # a duplicated row
                    edges.insert(k + int(rng.integers(2)), list(edges[k]))
                elif kind == 2:  # a row with its ends swapped
                    edges[k].reverse()
                elif kind == 3:  # an end out of range
                    edges[k][int(rng.integers(2))] = int(rng.choice([-1, n_nodes, n_nodes + 7]))
                elif kind == 4:  # a self-loop
                    edges[k][1] = edges[k][0]
                else:            # a dropped row, which may disconnect the graph
                    del edges[k]
                lists.append((n_nodes, [tuple(e) for e in edges]))
        for n_nodes, rows, seed in ((12, 16, 0), (30, 55, 1), (60, 130, 2)):
            u = uniforms(fold_key(seed, (9,)), 2 * rows)
            pairs = zip((u[:rows] * n_nodes).astype(int).tolist(),
                        (u[rows:] * n_nodes).astype(int).tolist())
            lists.append((n_nodes, sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})))
        outcomes = set()
        for n_nodes, edges in lists:
            expected = per_edge_check(n_nodes, edges)
            outcomes.add(expected.split(" (")[0] if expected else None)
            # an empty tuple has no (E, 2) shape, so only its array form is compared
            forms = (edge_array(edges), tuple(map(tuple, edges)))[:1 + bool(edges)]
            for form in forms:
                if expected is None:
                    assert Graph(n_nodes=n_nodes, edges=form).edges.tolist() == \
                        [list(e) for e in edges]
                    continue
                with pytest.raises(ValueError) as info:
                    Graph(n_nodes=n_nodes, edges=form)
                assert str(info.value) == expected, (n_nodes, edges)
        assert len(outcomes) == 4 and None in outcomes

    def test_arc_count_is_twice_edges(self):
        g = triangle()
        assert g.n_arcs == 2 * g.n_edges == 6

    def test_neighbors_and_degrees(self):
        g = path3()
        assert list(g.degrees) == [1, 2, 1]
        assert g.max_degree == 2

    def test_arc_order_pairs_both_directions(self):
        am = build_arc_matrices(path3())
        assert list(zip(am.tail.tolist(), am.head.tolist())) == [(0, 1), (1, 0), (1, 2), (2, 1)]


class TestIsConnected:
    @staticmethod
    def edge_sets():
        """(n_nodes, canonical edge list) cases, connected and not."""
        perm = np.random.default_rng(0).permutation(40).tolist()
        cases = [
            (2, [(0, 1)]), (2, []), (5, []),
            (30, [(k, k + 1) for k in range(29)]),                      # path
            (40, [(perm[k], perm[k + 1]) for k in range(39)]),          # shuffled path
            (40, [(perm[k], perm[k + 1]) for k in range(39) if k != 17]),
            (25, [(0, k) for k in range(1, 25)]),                       # star at 0
            (25, [(k, 24) for k in range(24)]),                         # star at N-1
            (25, [(k, 24) for k in range(1, 24)]),                      # node 0 isolated
            (25, [(0, k) for k in range(1, 24)]),                       # node N-1 isolated
            (8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 7)]),  # two parts
        ]
        # the sampler's own draws, rejected ones included
        for n_nodes, n_edges, seed in ((12, 16, 0), (30, 55, 1), (60, 130, 2), (200, 560, 3)):
            for attempt in range(10):
                u = uniforms(fold_key(seed, (7, attempt)), 2 * n_edges)
                i = (u[:n_edges] * n_nodes).astype(int)
                j = (u[n_edges:] * n_nodes).astype(int)
                cases.append((n_nodes, [(a, b) for a, b in zip(i, j) if a != b]))
        return [(n_nodes, sorted({(min(a, b), max(a, b)) for a, b in edges}))
                for n_nodes, edges in cases]

    def test_agrees_with_union_find(self):
        outcomes = set()
        for n_nodes, edges in self.edge_sets():
            expected = union_find_connected(n_nodes, edges)
            assert topology._is_connected(n_nodes, edge_array(edges)) == expected, (n_nodes, edges)
            outcomes.add(expected)
        assert outcomes == {True, False}

    def test_graph_accepts_exactly_the_connected_edge_sets(self):
        for n_nodes, edges in self.edge_sets():
            if union_find_connected(n_nodes, edges):
                assert Graph(n_nodes=n_nodes, edges=edge_array(edges)).n_edges == len(edges)
            else:
                with pytest.raises(ValueError, match="graph is not connected"):
                    Graph(n_nodes=n_nodes, edges=edge_array(edges))


class TestGenConnectedGraph:
    def test_complete_graph_forced(self):
        g = gen_connected_graph(5, rho=1.0, seed=7)
        assert g.n_edges == 10
        assert g.edges.tolist() == [[i, j] for i in range(5) for j in range(i + 1, 5)]

    def test_edge_count_formula(self):
        g = gen_connected_graph(200, rho=0.04, seed=3)
        assert g.n_edges == 796  # round(0.04 * 19900)

    def test_rejects_unreachable_connectivity(self):
        with pytest.raises(ValueError, match="needs at least"):
            gen_connected_graph(10, rho=0.01, seed=1)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            gen_connected_graph(1, rho=1.0, seed=1)

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            gen_connected_graph(5, rho=0.0, seed=1)
        with pytest.raises(ValueError):
            gen_connected_graph(5, rho=1.5, seed=1)

    def test_reproducible(self):
        a = gen_connected_graph(30, rho=0.12, seed=42)
        b = gen_connected_graph(30, rho=0.12, seed=42)
        assert np.array_equal(a.edges, b.edges)

    def test_seed_changes_sample(self):
        a = gen_connected_graph(30, rho=0.12, seed=42)
        b = gen_connected_graph(30, rho=0.12, seed=43)
        assert not np.array_equal(a.edges, b.edges)

    def test_retry_budget_failure_is_explicit(self, monkeypatch):
        # A tree-sparse sample on 30 nodes is essentially never connected on
        # the first few draws, so a budget of 1 must fail loudly.
        assert DEFAULT_MAX_RETRIES == 10_000
        monkeypatch.setattr(topology, "DEFAULT_MAX_RETRIES", 1)
        with pytest.raises(GraphConnectivityError, match="no connected graph in 1 samples"):
            gen_connected_graph(30, rho=29 / 435, seed=0)

    # the sparse cases need up to 3 (N=5), 10 (N=20) and 62 (N=30)
    # attempts for some of their seeds
    @pytest.mark.parametrize("n_nodes, rho, seeds", [
        (2, 1.0, range(3)),
        (3, 0.7, range(20)),
        (5, 0.5, range(20)),
        (12, 0.25, range(20)),
        (20, 0.15, range(10)),
        (30, 0.08, range(5)),
        (50, 0.1, range(5)),
        (200, 0.04, range(2)),
        (5, 1.0, range(2)),
        (30, 1.0, range(2)),
    ])
    def test_matches_all_pairs_sampler(self, n_nodes, rho, seeds):
        for seed in seeds:
            assert np.array_equal(gen_connected_graph(n_nodes, rho, seed).edges,
                                  all_pairs_sampler(n_nodes, rho, seed))


class TestArcMatrices:
    def test_path3_columns(self):
        am = build_arc_matrices(path3())
        q = list(zip(am.tail.tolist(), am.head.tolist())).index((0, 1))
        assert am.m_plus[:, q].tolist() == [1.0, 1.0, 0.0]
        assert am.m_minus[:, q].tolist() == [1.0, -1.0, 0.0]

    def test_single_edge_mplus(self):
        am = build_arc_matrices(Graph(2, [(0, 1)]))
        assert am.m_plus.tolist() == [[1.0, 1.0], [1.0, 1.0]]

    def test_gram_identities_exact(self):
        for seed in range(8):
            g = gen_connected_graph(12, rho=0.25, seed=seed)
            am = build_arc_matrices(g)
            adj = np.zeros((12, 12))
            for i, j in g.edges:
                adj[i, j] = adj[j, i] = 1.0
            deg = np.diag(adj.sum(axis=1))
            assert np.array_equal(am.signless_laplacian, deg + adj)
            assert np.array_equal(am.laplacian, deg - adj)

    def test_degrees_on_gram_diagonal(self):
        g = gen_connected_graph(15, rho=0.3, seed=5)
        am = build_arc_matrices(g)
        assert np.array_equal(np.diag(am.signless_laplacian), g.degrees.astype(float))

    def test_consensus_nullspace_of_mminus_t(self):
        g = gen_connected_graph(10, rho=0.4, seed=2)
        am = build_arc_matrices(g)
        ones = np.ones(10)
        assert np.array_equal(am.m_minus.T @ ones, np.zeros(g.n_arcs))

    def test_batched_operators_match_dense(self):
        # Degree-1 nodes (N=2, the star's leaves, the path's ends) make one-arc
        # groups at the boundaries of the tail-grouped index.  ``reduceat``
        # needs every node to have an arc, which a connected Graph guarantees.
        for g in (Graph(2, [(0, 1)]),
                  Graph(8, [(0, k) for k in range(1, 8)]),
                  Graph(6, [(k, k + 1) for k in range(5)]),
                  gen_connected_graph(20, rho=0.2, seed=6),
                  gen_connected_graph(15, rho=0.4, seed=2)):
            self.check_batched_operators(g)

    @staticmethod
    def check_batched_operators(g):
        am = build_arc_matrices(g)
        n_nodes = g.n_nodes
        x = polar_normals(fold_key(4, (0,)), 5 * n_nodes * 3).reshape(5, n_nodes, 3)
        z = polar_normals(fold_key(4, (1,)), 5 * g.n_arcs * 3).reshape(5, g.n_arcs, 3)
        for apply_t, dense in ((am.apply_mplus_t, am.m_plus), (am.apply_mminus_t, am.m_minus)):
            out = apply_t(x)
            assert np.array_equal(out, np.matmul(dense.T, x))
            assert out.flags.c_contiguous
        assert np.allclose(am.apply_mplus(z), np.matmul(am.m_plus, z), atol=1e-12)
        assert np.allclose(am.apply_mminus(z), np.matmul(am.m_minus, z), atol=1e-12)

        # reduceat adds a group's first row to the sum of the others, which
        # numpy takes in order for up to seven rows: these degrees are <= 8
        assert g.max_degree <= 8
        nbrs = [[] for _ in range(n_nodes)]
        for i, j in g.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        loop = np.empty_like(x)
        for i, node_nbrs in enumerate(nbrs):
            first, *others = sorted(node_nbrs)
            rest = np.zeros_like(x[:, i])
            for j in others:
                rest = rest + x[:, j]
            loop[:, i] = x[:, first] + rest
        assert np.array_equal(am.neighbor_sum(x), loop)
        assert np.array_equal(am.neighbor_sum(x[2]), loop[2])
        adjacency = am.signless_laplacian - np.diag(am.degrees)
        assert np.allclose(am.neighbor_sum(x), np.matmul(adjacency, x), atol=1e-12)

    def test_grouped_operators_do_not_call_wrapped_methods(self, monkeypatch):
        # a tracer wraps the apply_* methods on the class; each call must be
        # one span, so no operator may reach another through them
        calls = []
        for name in ("apply_mplus_t", "apply_mminus_t", "apply_mplus", "apply_mminus"):
            def counted(self, arg, _name=name, _method=getattr(topology.ArcMatrices, name)):
                calls.append(_name)
                return _method(self, arg)
            monkeypatch.setattr(topology.ArcMatrices, name, counted)
        am = build_arc_matrices(gen_connected_graph(10, rho=0.4, seed=3))
        am.neighbor_sum(np.ones((10, 2)))
        assert calls == []
        am.apply_mplus(np.ones((am.n_arcs, 2)))
        am.apply_mminus(np.ones((am.n_arcs, 2)))
        assert calls == ["apply_mplus", "apply_mminus"]

    def test_rank_deficiency_is_exactly_one(self):
        for seed in range(5):
            g = gen_connected_graph(9, rho=0.4, seed=seed)
            am = build_arc_matrices(g)
            lam = np.linalg.eigvalsh(am.laplacian)
            assert np.sum(np.abs(lam) < 1e-9) == 1


class TestSpectralSummary:
    def test_hand_built_arc_set_without_arcs_rejected(self):
        # a Graph always has an edge; an ArcMatrices built by hand need not
        no_arcs = np.empty(0, dtype=np.intp)
        am = topology.ArcMatrices(n_nodes=3, tail=no_arcs, head=no_arcs)
        with pytest.raises(ValueError, match="no nonzero singular value"):
            spectral_summary(am)

    def test_path3_values(self):
        s = spectral_summary(build_arc_matrices(path3()))
        assert s.sigma_max_mplus == pytest.approx(np.sqrt(6.0), rel=1e-12)
        assert s.sigma_min_nz_mminus == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert s.max_degree == 2

    def test_triangle_values(self):
        s = spectral_summary(build_arc_matrices(triangle()))
        assert s.sigma_max_mplus == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-12)

    def test_lift_invariance(self):
        # Singular values of the Kronecker lift match the base matrices.
        g = gen_connected_graph(6, rho=0.5, seed=1)
        am = build_arc_matrices(g)
        s = spectral_summary(am)
        for n in (2, 3):
            lifted = np.kron(am.m_minus, np.eye(n))
            sv = np.linalg.svd(lifted, compute_uv=False)
            assert sv.max() == pytest.approx(s.sigma_max_mminus, rel=1e-10)
            nz = sv[sv > 1e-9 * sv.max()]
            assert nz.min() == pytest.approx(s.sigma_min_nz_mminus, rel=1e-10)

    def test_laplacian_bound_path_and_triangle(self):
        # lambda_max(D + W) = 0.5 * sigma_max_mplus**2 <= 2 * d_max, with
        # equality on the complete graph; the slack absorbs solver roundoff
        for g in (path3(), triangle()):
            s = spectral_summary(build_arc_matrices(g))
            assert 0.5 * s.sigma_max_mplus**2 <= 2.0 * s.max_degree * (1.0 + 1e-9)
        assert 0.5 * s.sigma_max_mplus**2 == pytest.approx(4.0, rel=1e-12)

    def test_all_values_finite_nonnegative(self):
        g = gen_connected_graph(20, rho=0.15, seed=9)
        s = spectral_summary(build_arc_matrices(g))
        vals = [s.sigma_max_mplus, s.sigma_max_mminus, s.sigma_min_nz_mminus]
        assert all(np.isfinite(v) and v >= 0 for v in vals)

