"""Persistent :class:`~repro.core.query.QueryEngine`: cross-backend
equivalence, cache reuse (the build-once contract), telemetry, lifecycle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import ShortestPathOracle
from repro.core.query import QueryEngine
from repro.core.sssp import sssp_naive, sssp_scheduled
from repro.kernels.bellman_ford import initial_distances
from repro.pram.machine import Ledger
from repro.pram.shm import SEGMENT_PREFIX, orphaned_segments
from repro.separators.grid import decompose_grid
from repro.workloads.generators import grid_digraph
from tests.conftest import assert_distances_equal, reference_apsp

BACKENDS = [
    "serial",
    "thread:2",
    pytest.param("shm:2", marks=pytest.mark.multiproc),
]


def _unlinked_mappings(pid: int) -> int:
    """Distinct unlinked shared segments mapped into process ``pid``."""
    with open(f"/proc/{pid}/maps") as fh:
        return len({
            line.split(None, 5)[5]
            for line in fh
            if f"/dev/shm/{SEGMENT_PREFIX}" in line and line.rstrip().endswith("(deleted)")
        })


@pytest.fixture
def oracle(grid6_negative):
    g, tree = grid6_negative
    return ShortestPathOracle.build(g, tree)


class TestEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mode", ["scheduled", "naive"])
    def test_bit_identical_to_serial_pass(self, oracle, rng, backend, mode):
        srcs = rng.integers(0, oracle.graph.n, size=17)
        ref_fn = sssp_scheduled if mode == "scheduled" else sssp_naive
        want = ref_fn(oracle.augmentation, srcs)
        with oracle.query_engine(executor=backend, engine=mode) as eng:
            got = eng.query(srcs)
            again = eng.query(srcs)  # second batch through the warm pool
        assert np.array_equal(got, want)
        assert np.array_equal(again, want)
        assert orphaned_segments() == []

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mode", ["scheduled", "naive"])
    def test_edge_scans_are_real_work(self, oracle, rng, backend, mode):
        """Every executor reports the edge scans its shards actually ran,
        and the count equals a serial ledger of the same batch."""
        srcs = rng.integers(0, oracle.graph.n, size=17)
        aug = oracle.augmentation
        ledger = Ledger()
        dist = initial_distances(oracle.graph.n, srcs, aug.semiring)
        if mode == "scheduled":
            aug.schedule().run(dist, ledger=ledger)
        else:
            active = np.arange(srcs.size)
            for _ in range(aug.diameter_bound):
                active = aug.relaxer().relax_rows(dist, active, ledger=ledger)
        with oracle.query_engine(executor=backend, engine=mode) as eng:
            got, info = eng.submit(srcs)
            assert eng.stats()["last_batch"]["edge_scans"] == info["edge_scans"]
        assert np.array_equal(got, dist)
        assert ledger.work > 0
        assert info["edge_scans"] == ledger.work

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_reference_apsp(self, grid6_negative, backend):
        g, tree = grid6_negative
        oracle = ShortestPathOracle.build(g, tree)
        with oracle.query_engine(executor=backend) as eng:
            got = eng.query(np.arange(g.n))
        assert_distances_equal(got, reference_apsp(g))

    def test_single_source_and_tiny_batch(self, oracle):
        with oracle.query_engine(executor="serial") as eng:
            d = eng.query(3)
            assert d.shape == (oracle.graph.n,)
            d1 = eng.query([3])
            assert d1.shape == (1, oracle.graph.n)
            assert np.array_equal(d, d1[0])

    @pytest.mark.multiproc
    def test_uneven_shards(self, oracle):
        """Batch size not divisible by worker count still covers every row."""
        srcs = np.arange(7)
        want = sssp_scheduled(oracle.augmentation, srcs)
        with oracle.query_engine(executor="shm:3") as eng:
            assert np.array_equal(eng.query(srcs), want)
        assert orphaned_segments() == []


class TestCaching:
    def test_engine_reuses_augmentation_caches(self, oracle):
        """The build-once contract: the engine must hold the *same* schedule
        / relaxer objects the augmentation caches — not rebuilds."""
        aug = oracle.augmentation
        eng = QueryEngine(aug)
        try:
            assert eng.schedule is aug.schedule()
            assert eng.schedule is oracle.schedule
            assert eng._relaxers is aug.schedule().relaxers
        finally:
            eng.close()
        naive = QueryEngine(aug, engine="naive")
        try:
            assert naive._relaxers[0] is aug.relaxer()
        finally:
            naive.close()

    def test_augmentation_caches_are_singletons(self, oracle):
        aug = oracle.augmentation
        assert aug.schedule() is aug.schedule()
        assert aug.relaxer() is aug.relaxer()
        assert aug.augmented_graph() is aug.augmented_graph()

    def test_engines_share_one_schedule(self, oracle):
        with oracle.query_engine(executor="serial") as a, \
             oracle.query_engine(executor="serial") as b:
            assert a.schedule is b.schedule

    @pytest.mark.multiproc
    def test_shm_publishes_once_across_queries(self, oracle):
        with oracle.query_engine(executor="shm:2") as eng:
            eng.query(np.arange(8))
            published = eng.stats()["shared_bytes"]
            eng.query(np.arange(8))
            # Same batch size: no new phase arrays, no new distance block.
            assert eng.stats()["shared_bytes"] == published


class TestLifecycle:
    def test_stats_counters(self, oracle):
        with oracle.query_engine(executor="serial") as eng:
            eng.query([0, 1, 2])
            eng.query(5)
            s = eng.stats()
        assert s["queries_served"] == 2
        assert s["rows_served"] == 4
        assert s["engine"] == "scheduled" and s["phases"] >= 1

    def test_query_after_close_raises(self, oracle):
        eng = oracle.query_engine(executor="serial")
        eng.close()
        eng.close()  # idempotent
        with pytest.raises(ValueError):
            eng.query([0])

    def test_invalid_engine_rejected(self, oracle):
        with pytest.raises(ValueError):
            QueryEngine(oracle.augmentation, engine="warp")

    @pytest.mark.multiproc
    def test_workers_unmap_retired_generations(self, rng):
        """After N reweights the unlinked segments any pool worker still
        maps stay bounded independently of N: a new generation evicts the
        old one worker-side and unmaps what its owner unlinked."""
        g = grid_digraph((24, 24), rng)
        tree = decompose_grid(g, (24, 24), leaf_size=8)
        oracle = ShortestPathOracle.build(g, tree, method="leaves_up")
        srcs = rng.integers(0, g.n, size=64)
        stale = []
        with QueryEngine(oracle.augmentation, executor="shm:2") as eng:
            for _ in range(10):
                oracle = oracle.with_new_weights(rng.uniform(1.0, 9.0, size=g.m))
                eng.reweight(oracle.augmentation)
                eng.query(srcs)
                stale.append(max(_unlinked_mappings(pid) for pid in eng._exe._pool._processes))
        assert max(stale) <= 2, stale
        assert orphaned_segments() == []

    @pytest.mark.multiproc
    def test_close_releases_segments(self, oracle):
        eng = oracle.query_engine(executor="shm:2")
        eng.query(np.arange(6))
        assert orphaned_segments() != []  # arena is live while serving
        eng.close()
        assert orphaned_segments() == []
