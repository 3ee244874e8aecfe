"""Tests for separator decomposition trees: construction, labels,
Proposition 2.1 invariants, and failure modes."""

import numpy as np
import pytest

from repro.core.digraph import WeightedDigraph, component_labels
from repro.core.septree import (
    DecompositionError,
    SeparatorTree,
    SepTreeNode,
    build_separator_tree,
    split_components,
)
from repro.separators.grid import decompose_grid, grid_mu, grid_separator_fn
from repro.workloads.generators import grid_digraph


def middle_vertex_separator(sub, global_vertices):
    """Toy oracle for paths: cut at the middle vertex (by global id order)."""
    order = np.argsort(global_vertices)
    return np.array([order[len(order) // 2]], dtype=np.int64)


class TestBuilder:
    def test_path_graph_decomposition(self):
        g = WeightedDigraph(9, np.arange(8), np.arange(1, 9), np.ones(8))
        # Make it bidirected so the skeleton is connected both ways.
        g = g.with_extra_edges(np.arange(1, 9), np.arange(8), np.ones(8))
        tree = build_separator_tree(g, middle_vertex_separator, leaf_size=2)
        tree.validate(g)
        assert tree.root.size == 9
        assert tree.height <= 4

    def test_leaf_size_respected(self, grid7):
        g, tree = grid7
        assert tree.max_leaf_size() <= 4

    def test_root_is_everything(self, grid7):
        g, tree = grid7
        assert np.array_equal(tree.root.vertices, np.arange(g.n))
        assert tree.root.boundary.size == 0

    def test_boundary_recurrence(self, grid7):
        """B(t) = (S(p) ∪ B(p)) ∩ V(t) — Prop 2.1(i) in recurrence form."""
        g, tree = grid7
        for t in tree.nodes:
            if t.parent < 0:
                continue
            p = tree.nodes[t.parent]
            want = np.intersect1d(np.union1d(p.separator, p.boundary), t.vertices)
            assert np.array_equal(want, t.boundary)

    def test_boundary_is_union_of_ancestor_separators(self, grid7):
        """Prop 2.1(i) closed form."""
        g, tree = grid7
        for t in tree.nodes:
            anc_seps = []
            a = t.parent
            while a >= 0:
                anc_seps.append(tree.nodes[a].separator)
                a = tree.nodes[a].parent
            pool = np.unique(np.concatenate(anc_seps)) if anc_seps else np.empty(0, np.int64)
            assert np.array_equal(np.intersect1d(pool, t.vertices), t.boundary)

    def test_boundary_shields(self, grid7):
        """Prop 2.1(ii): no skeleton edge from V(t)∖B(t) to V∖V(t)."""
        g, tree = grid7
        for t in tree.nodes:
            inside = np.zeros(g.n, dtype=bool)
            inside[t.vertices] = True
            strict = inside.copy()
            strict[t.boundary] = False
            for u, v in zip(g.src.tolist(), g.dst.tolist()):
                assert not (strict[u] and not inside[v])
                assert not (strict[v] and not inside[u])

    def test_full_inclusion_puts_separator_in_both_children(self, grid7):
        g, tree = grid7
        for t in tree.nodes:
            if t.is_leaf:
                continue
            for c in t.children:
                child = tree.nodes[c]
                assert np.isin(t.separator, child.vertices).all()

    def test_literal_inclusion_variant(self, rng):
        g = grid_digraph((6, 6), rng)
        tree = build_separator_tree(
            g, grid_separator_fn((6, 6)), leaf_size=4, full_separator_inclusion=False
        )
        tree.validate(g)
        # The literal rule may omit a separator vertex from one child.
        full = build_separator_tree(g, grid_separator_fn((6, 6)), leaf_size=4)
        assert tree.total_label_size() <= full.total_label_size()

    def test_bad_oracle_raises(self):
        g = grid_digraph((4, 4), None)

        def lazy(sub, gv):  # returns nothing on a connected graph
            return np.empty(0, dtype=np.int64)

        with pytest.raises(DecompositionError):
            build_separator_tree(g, lazy, leaf_size=2)

    def test_out_of_range_oracle_raises(self):
        g = grid_digraph((4, 4), None)

        def bad(sub, gv):
            return np.array([sub.n + 5])

        with pytest.raises(DecompositionError):
            build_separator_tree(g, bad, leaf_size=2)

    def test_leaf_size_validation(self):
        g = grid_digraph((3, 3), None)
        with pytest.raises(ValueError):
            build_separator_tree(g, middle_vertex_separator, leaf_size=0)


class TestLevelsAndNodes:
    def test_vertex_level_minimality(self, grid7):
        """level(v) = min level of a node whose separator holds v."""
        g, tree = grid7
        want = np.full(g.n, -1, dtype=np.int64)
        for t in tree.nodes:
            for v in t.separator.tolist():
                if want[v] < 0 or t.level < want[v]:
                    want[v] = t.level
        assert np.array_equal(tree.vertex_level, want)

    def test_vertex_node_consistency(self, grid7):
        g, tree = grid7
        for v in range(g.n):
            t = tree.nodes[tree.vertex_node[v]]
            if tree.vertex_level[v] >= 0:
                assert v in t.separator
                assert t.level == tree.vertex_level[v]
            else:
                assert t.is_leaf and v in t.vertices

    def test_boundary_level_strictly_lower(self, grid7):
        """If v ∈ B(t) then level(v) < level(t) (§3.1)."""
        g, tree = grid7
        for t in tree.nodes:
            for v in t.boundary.tolist():
                assert 0 <= tree.vertex_level[v] < t.level

    def test_separator_level_at_most_node(self, grid7):
        g, tree = grid7
        for t in tree.nodes:
            for v in t.separator.tolist():
                assert tree.vertex_level[v] <= t.level

    def test_levels_desc_order(self, grid7):
        _, tree = grid7
        prev = None
        for group in tree.levels_desc():
            lvl = group[0].level
            assert all(t.level == lvl for t in group)
            if prev is not None:
                assert lvl < prev
            prev = lvl

    def test_ell_bound(self, grid7):
        _, tree = grid7
        assert tree.ell_bound() == tree.max_leaf_size() - 1


class TestSplitComponents:
    def test_balanced_split(self):
        g = grid_digraph((4, 4), None)
        sep = np.array([1, 5, 9, 13])  # second column
        v1, v2 = split_components(g, sep)
        assert v1.size and v2.size
        assert not np.intersect1d(v1, v2).size

    def test_empty_separator_on_connected_raises(self):
        g = grid_digraph((3, 3), None)
        with pytest.raises(DecompositionError):
            split_components(g, np.empty(0, dtype=np.int64))

    def test_empty_separator_on_disconnected_ok(self):
        g = WeightedDigraph(4, [0, 2], [1, 3], [1, 1])  # two components
        v1, v2 = split_components(g, np.empty(0, dtype=np.int64))
        assert v1.size == 2 and v2.size == 2


def _messy_graph(rng, n):
    """Random multigraph with duplicate edges, self loops and (usually)
    isolated vertices, plus a random vertex subset to remove."""
    m = int(rng.integers(0, 2 * n))
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    dup = rng.integers(0, max(m, 1), m // 4)
    loops = rng.integers(0, n, 3)
    src = np.concatenate([src, src[dup], loops])
    dst = np.concatenate([dst, dst[dup], loops])
    sep = np.unique(rng.integers(0, n, int(rng.integers(0, n // 3 + 1))))
    return WeightedDigraph(n, src, dst), sep


def _scipy_labels(n, src, dst):
    """The COO-built reference the shared labeller replaced."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    adj = sp.coo_matrix((np.ones(src.shape[0]), (src, dst)), shape=(n, n)).tocsr()
    return connected_components(adj, directed=False)


def _reference_split(sub, sep):
    """``split_components`` as written before the shared labeller."""
    keep = np.ones(sub.n, dtype=bool)
    keep[sep] = False
    rest = np.nonzero(keep)[0]
    if rest.size == 0:
        return rest, rest.copy()
    mask = keep[sub.src] & keep[sub.dst]
    _, labels = _scipy_labels(sub.n, sub.src[mask], sub.dst[mask])
    comp_of_rest = labels[rest]
    comp_ids, counts = np.unique(comp_of_rest, return_counts=True)
    order = np.argsort(counts)[::-1]
    side, load = {}, [0, 0]
    for ci in order:
        pick = 0 if load[0] <= load[1] else 1
        side[comp_ids[ci]] = pick
        load[pick] += int(counts[ci])
    which = np.array([side[c] for c in comp_of_rest])
    return rest[which == 0], rest[which == 1]


class TestComponentLabels:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_scipy_on_messy_graphs(self, seed):
        rng = np.random.default_rng(seed)
        g, sep = _messy_graph(rng, int(rng.integers(1, 60)))
        want_n, want = _scipy_labels(g.n, g.src, g.dst)
        got_n, got = component_labels(g.n, g.src, g.dst)
        assert got_n == want_n and np.array_equal(got, want)
        keep = np.ones(g.n, dtype=bool)
        keep[sep] = False
        mask = keep[g.src] & keep[g.dst]
        want_n, want = _scipy_labels(g.n, g.src[mask], g.dst[mask])
        got_n, got = component_labels(g.n, g.src[mask], g.dst[mask])
        assert got_n == want_n and np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(40))
    def test_split_matches_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        g, sep = _messy_graph(rng, int(rng.integers(2, 60)))
        if sep.size == 0 and component_labels(g.n, g.src, g.dst)[0] == 1:
            with pytest.raises(DecompositionError):
                split_components(g, sep)
            return
        want = _reference_split(g, sep)
        got = split_components(g, sep)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_no_vertices(self):
        ncomp, labels = component_labels(0, np.empty(0, np.int64), np.empty(0, np.int64))
        assert ncomp == 0 and labels.shape == (0,)

    def test_components_without_keeps_the_last_answer_per_graph(self):
        g = grid_digraph((4, 4), None)
        sep = np.array([1, 5, 9, 13])
        first = g.components_without(sep)
        assert g.components_without(sep.copy()) is first
        assert g.components_without(sep[:2]) is not first
        twin = WeightedDigraph(g.n, g.src, g.dst)
        again = twin.components_without(sep)
        assert again is not first
        assert np.array_equal(again.rest_labels, first.rest_labels)
        assert first.ids.tolist() == [0, 2] and first.counts.tolist() == [4, 8]
        assert not first.rest_labels.flags.writeable


class TestGridOracle:
    def test_grid_mu(self):
        assert grid_mu((9, 9)) == 0.5
        assert np.isclose(grid_mu((5, 5, 5)), 2 / 3)
        assert grid_mu((100,)) == 0.0
        assert grid_mu((100, 1)) == 0.0

    def test_shape_mismatch_raises(self, rng):
        g = grid_digraph((4, 4), rng)
        with pytest.raises(ValueError):
            decompose_grid(g, (5, 5))

    def test_3d_grid(self, rng):
        g = grid_digraph((4, 4, 4), rng)
        tree = decompose_grid(g, (4, 4, 4), leaf_size=8)
        tree.validate(g)
        assert tree.height <= 12

    def test_validate_catches_corruption(self, grid7):
        g, tree = grid7
        # Corrupt a boundary label and expect validate to complain.
        victim = next(t for t in tree.nodes if t.boundary.size > 0)
        orig = victim.boundary
        victim.boundary = orig[:-1]
        try:
            problems = tree.validate(g, strict=False)
            assert problems
        finally:
            victim.boundary = orig
