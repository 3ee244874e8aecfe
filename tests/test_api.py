"""Tests for the ShortestPathOracle facade."""

import numpy as np
import pytest

from repro import ShortestPathOracle
from repro.core.paths import path_weight
from repro.separators.grid import decompose_grid
from repro.workloads.generators import apply_potential_weights, delaunay_digraph, grid_digraph
from tests.conftest import assert_distances_equal, reference_apsp


class TestBuild:
    def test_with_explicit_tree(self, grid7):
        g, tree = grid7
        oracle = ShortestPathOracle.build(g, tree, validate=True)
        assert oracle.tree is tree
        assert oracle.diameter_bound == oracle.augmentation.diameter_bound

    def test_auto_separator(self, rng):
        g, _ = delaunay_digraph(60, rng)
        oracle = ShortestPathOracle.build(g)  # spectral fallback
        ref = reference_apsp(g)
        assert_distances_equal(oracle.distances([0, 30]), ref[[0, 30]])

    def test_planar_separator_spec(self, rng):
        g, _ = delaunay_digraph(60, rng)
        oracle = ShortestPathOracle.build(g, separator="planar")
        assert_distances_equal(oracle.distances(0), reference_apsp(g)[0])

    def test_callable_separator_spec(self, rng):
        from repro.separators.grid import grid_separator_fn

        g = grid_digraph((5, 5), rng)
        oracle = ShortestPathOracle.build(g, separator=grid_separator_fn((5, 5)))
        assert_distances_equal(oracle.distances(0), reference_apsp(g)[0])

    def test_unknown_specs_raise(self, grid7):
        g, tree = grid7
        with pytest.raises(ValueError):
            ShortestPathOracle.build(g, separator="voodoo")
        with pytest.raises(ValueError):
            ShortestPathOracle.build(g, tree, method="magic")

    @pytest.mark.parametrize("method", ["leaves_up", "doubling"])
    def test_methods_agree(self, grid7, method):
        g, tree = grid7
        oracle = ShortestPathOracle.build(g, tree, method=method)
        assert_distances_equal(oracle.distances([0, 24]), reference_apsp(g)[[0, 24]])


class TestQueries:
    @pytest.fixture
    def oracle(self, grid6_negative):
        g, tree = grid6_negative
        return ShortestPathOracle.build(g, tree)

    def test_engines_agree(self, oracle):
        s = [0, 5, 35]
        assert_distances_equal(
            oracle.distances(s, engine="scheduled"), oracle.distances(s, engine="naive")
        )
        with pytest.raises(ValueError):
            oracle.distances(s, engine="warp")

    def test_point_distance(self, oracle):
        ref = reference_apsp(oracle.graph)
        assert np.isclose(oracle.distance(3, 27), ref[3, 27])

    def test_shortest_path_tree_and_path(self, oracle):
        dist = oracle.distances(0)
        parent = oracle.shortest_path_tree(0)
        assert parent[0] == -1
        p = oracle.path(0, 35)
        assert p is not None
        assert np.isclose(path_weight(oracle.graph, p), dist[35])

    def test_stats_keys(self, oracle):
        s = oracle.stats()
        for key in ("n", "m", "eplus", "height", "ell", "diameter_bound",
                    "preprocess_work", "schedule_phases", "schedule_edge_scans"):
            assert key in s

    def test_query_ledger_accumulates(self, oracle):
        w0 = oracle.query_ledger.work
        oracle.distances([0, 1])
        assert oracle.query_ledger.work > w0

    def test_measured_diameter_within_bound(self, oracle):
        assert oracle.measured_diameter() <= oracle.diameter_bound

    def test_negative_cycle_cross_check(self, oracle):
        assert oracle.check_no_negative_cycle()


class TestExecutors:
    @pytest.mark.parametrize(
        "executor",
        [
            "serial",
            "thread:2",
            pytest.param("shm:2", marks=pytest.mark.multiproc),
        ],
    )
    @pytest.mark.parametrize("method", ["leaves_up", "doubling"])
    def test_backends_identical_results(self, rng, executor, method):
        g = apply_potential_weights(grid_digraph((6, 6), rng), rng)
        tree = decompose_grid(g, (6, 6), leaf_size=4)
        base = ShortestPathOracle.build(g, tree, method=method)
        alt = ShortestPathOracle.build(g, tree, method=method, executor=executor)
        assert np.array_equal(base.augmentation.src, alt.augmentation.src)
        assert np.allclose(base.augmentation.weight, alt.augmentation.weight)
        assert_distances_equal(alt.distances(0), base.distances(0))
