"""Tests for all separator engines and the shared progress machinery."""

import numpy as np
import pytest

from repro.core.digraph import WeightedDigraph
from repro.core.septree import DecompositionError
from repro.separators.bfs_levels import bfs_levels, largest_component
from repro.separators.common import (
    component_aware,
    ensure_progress,
    has_two_sides,
    neighborhood_separator,
    rest_components,
)
from repro.separators.geometric import decompose_geometric
from repro.separators.planar import decompose_planar
from repro.separators.quality import assess
from repro.separators.spectral import (
    _vertex_separator_from_cut,
    decompose_spectral,
    dense_laplacian,
    fiedler_vector,
)
from repro.separators.treewidth import decompose_treewidth, tree_decomposition_width
from repro.workloads.generators import (
    delaunay_digraph,
    grid_digraph,
    overlap_digraph,
    random_tree_digraph,
)


class TestBfsLevels:
    def test_levels_on_path(self):
        g = WeightedDigraph(4, [0, 1, 2], [1, 2, 3], np.ones(3))
        level, parent = bfs_levels(g, 0)
        assert level.tolist() == [0, 1, 2, 3]
        assert parent.tolist() == [-1, 0, 1, 2]

    def test_unreached_marked(self):
        g = WeightedDigraph(3, [0], [1], [1.0])
        level, _ = bfs_levels(g, 0)
        assert level[2] == -1

    def test_largest_component(self):
        g = WeightedDigraph(5, [0, 1, 3], [1, 2, 4], np.ones(3))
        assert largest_component(g).tolist() == [0, 1, 2]


class TestCommon:
    def test_rest_components(self):
        g = grid_digraph((3, 3), None)
        ncomp, largest = rest_components(g, np.array([1, 4, 7]))  # middle column
        assert ncomp == 2 and largest == 3

    def test_has_two_sides_false_for_corner(self):
        g = grid_digraph((3, 3), None)
        assert not has_two_sides(g, np.array([0]))

    def test_neighborhood_separator_star(self):
        # Star: center 0; N(leaf) = {0} separates that leaf from the rest.
        n = 6
        g = WeightedDigraph(n, [0] * 5 + list(range(1, 6)), list(range(1, 6)) + [0] * 5,
                            np.ones(10))
        sep = neighborhood_separator(g)
        assert sep.tolist() == [0]
        assert has_two_sides(g, sep)

    def test_neighborhood_separator_clique_signals_inseparable(self):
        from repro.core.septree import InseparableSubgraph

        n = 5
        src = [i for i in range(n) for j in range(n) if i != j]
        dst = [j for i in range(n) for j in range(n) if i != j]
        g = WeightedDigraph(n, src, dst, np.ones(len(src)))
        with pytest.raises(InseparableSubgraph):
            neighborhood_separator(g)

    def test_clique_becomes_oversized_leaf(self):
        """A K6 has no separator (paper §1 definition): the builder must
        fall back to an oversized leaf and the pipeline must stay exact."""
        from repro.core.leaves_up import augment_leaves_up
        from repro.core.sssp import sssp_scheduled
        from repro.kernels.floyd_warshall import floyd_warshall

        n = 6
        src = [i for i in range(n) for j in range(n) if i != j]
        dst = [j for i in range(n) for j in range(n) if i != j]
        rng = np.random.default_rng(0)
        g = WeightedDigraph(n, src, dst, rng.uniform(1, 5, len(src)))
        tree = decompose_spectral(g, leaf_size=3)
        assert len(tree.nodes) == 1 and tree.root.is_leaf
        aug = augment_leaves_up(g, tree)
        got = sssp_scheduled(aug, list(range(n)))
        assert np.allclose(got, floyd_warshall(g.dense_weights()))

    def test_ensure_progress_passthrough(self):
        g = grid_digraph((3, 3), None)
        sep = np.array([1, 4, 7])
        assert ensure_progress(g, sep) is sep

    def test_component_aware_empty_on_balanced_disconnect(self):
        g = WeightedDigraph(6, [0, 1, 3, 4], [1, 2, 4, 5], np.ones(4))

        def never(sub, gv):  # should not be called
            raise AssertionError("core called on balanced disconnected input")

        sep = component_aware(never)(g, np.arange(6))
        assert sep.size == 0


class TestEngines:
    def test_planar_on_delaunay(self, rng):
        g, _ = delaunay_digraph(200, rng)
        tree = decompose_planar(g, leaf_size=8)
        tree.validate(g)
        q = assess(tree)
        assert q.mu_hat < 0.85  # sublinear separators
        assert q.height_over_log2n < 3.0

    def test_spectral_on_grid_is_sqrt(self, rng):
        g = grid_digraph((16, 16), rng)
        tree = decompose_spectral(g, leaf_size=8)
        tree.validate(g)
        q = assess(tree)
        assert 0.3 < q.mu_hat < 0.75

    def test_geometric_on_overlap(self, rng):
        g, pts = overlap_digraph(250, rng, degree_target=7.0)
        tree = decompose_geometric(g, pts, leaf_size=8)
        tree.validate(g)

    def test_treewidth_on_tree_gives_tiny_separators(self, rng):
        g = random_tree_digraph(100, rng)
        assert tree_decomposition_width(g) == 1
        tree = decompose_treewidth(g, leaf_size=4)
        tree.validate(g)
        q = assess(tree)
        assert q.max_separator <= 2

    def test_fiedler_vector_signs_split_barbell(self):
        # Two triangles joined by one edge: Fiedler vector separates them.
        src = [0, 1, 2, 3, 4, 5, 2]
        dst = [1, 2, 0, 4, 5, 3, 3]
        g = WeightedDigraph(6, src + dst, dst + src, np.ones(14))
        f = fiedler_vector(g)
        left = set(np.nonzero(f < np.median(f))[0].tolist())
        assert left in ({0, 1, 2}, {3, 4, 5})

    def test_engines_handle_disconnected_input(self, rng):
        a = grid_digraph((4, 4), rng)
        # Two disjoint 4x4 grids in one vertex space.
        g = WeightedDigraph(
            32,
            np.concatenate([a.src, a.src + 16]),
            np.concatenate([a.dst, a.dst + 16]),
            np.concatenate([a.weight, a.weight]),
        )
        for build in (decompose_spectral, decompose_planar):
            tree = build(g, leaf_size=4)
            tree.validate(g)


class TestSpectralReproducible:
    """The spectral build is a function of its input and ``seed``: the ARPACK
    start vector comes from the seed, so two builds give the same tree."""

    def test_decompose_twice_same_tree(self):
        g = grid_digraph((20, 20), None)  # n=400 > dense_cutoff: eigsh runs
        a = decompose_spectral(g, dense_cutoff=16)
        b = decompose_spectral(g, dense_cutoff=16)
        assert len(a.nodes) == len(b.nodes)
        for ta, tb in zip(a.nodes, b.nodes):
            assert np.array_equal(ta.vertices, tb.vertices)
            assert np.array_equal(ta.separator, tb.separator)

    def test_fiedler_vector_same_bytes(self):
        g = grid_digraph((20, 20), None)
        a = fiedler_vector(g, dense_cutoff=16, seed=3)
        b = fiedler_vector(g, dense_cutoff=16, seed=3)
        assert a.tobytes() == b.tobytes()


def _messy_digraph(rng, n):
    """Random multigraph with duplicate edges and self loops."""
    m = int(rng.integers(0, 3 * n))
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    loops = rng.integers(0, n, 2)
    return WeightedDigraph(
        n, np.concatenate([src, src[: m // 3], loops]), np.concatenate([dst, dst[: m // 3], loops])
    )


class TestSpectralEquivalences:
    """The cheap constructions give the same bytes as the sparse ones they
    replaced, so the separator trees stay bit-identical."""

    @pytest.mark.parametrize("seed", range(25))
    def test_dense_laplacian_matches_sparse_construction(self, seed):
        import scipy.sparse as sp

        g = _messy_digraph(np.random.default_rng(seed), 1 + seed * 3)
        rows = np.concatenate([g.src, g.dst])
        cols = np.concatenate([g.dst, g.src])
        a = sp.coo_matrix((np.ones(rows.shape[0]), (rows, cols)), shape=(g.n, g.n)).tocsr()
        a = (a > 0).astype(np.float64)
        lap = sp.diags(np.asarray(a.sum(axis=1)).ravel()) - a
        want = lap.toarray()
        got = dense_laplacian(g)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(25))
    def test_vertex_separator_from_cut_matches_union_form(self, seed):
        rng = np.random.default_rng(50 + seed)
        g = _messy_digraph(rng, 2 + seed * 3)
        in_a = rng.random(g.n) < 0.5
        cross = in_a[g.src] != in_a[g.dst]
        a_side = np.union1d(g.src[cross & in_a[g.src]], g.dst[cross & in_a[g.dst]])
        b_side = np.union1d(g.src[cross & ~in_a[g.src]], g.dst[cross & ~in_a[g.dst]])
        want = a_side if a_side.shape[0] <= b_side.shape[0] else b_side
        if not cross.any():
            want = np.empty(0, dtype=np.int64)
        got = _vertex_separator_from_cut(g, in_a)
        assert got.dtype == np.int64 and np.array_equal(got, want)


class TestQuality:
    def test_assess_reports_sane_numbers(self, grid7):
        g, tree = grid7
        q = assess(tree)
        assert q.n == g.n
        assert q.num_nodes == len(tree.nodes)
        assert q.max_leaf_size <= 4
        assert 0 < q.worst_balance <= 1.0
        assert "μ̂" in q.summary()

    def test_single_leaf_tree(self, rng):
        g = grid_digraph((2, 2), rng)
        from repro.separators.grid import decompose_grid

        tree = decompose_grid(g, (2, 2), leaf_size=8)
        q = assess(tree)
        assert q.num_nodes == 1 and q.mu_hat == 0.0
