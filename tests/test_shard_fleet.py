"""Process-backend tests of the shard fleet (``multiproc`` lane).

Covers the seeded cross-``k`` equivalence property (bit-identical to the
direct engine on integer weights, including unreachable ∞ rows and
negative weights), worker crash → supervised restart (warm via the
augmentation cache) with stale-segment sweeping, CPU pinning, serving a
fleet behind :class:`~repro.server.OracleServer` via ``engine_factory``,
and the fleet-wide ``/dev/shm``-clean drain invariant.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time

import numpy as np
import pytest

from repro import OracleConfig, ShortestPathOracle, WeightedDigraph
from repro.core.protocols import SERVING_STATS_KEYS, ServingBackend
from repro.pram.shm import orphaned_segments
from repro.separators.grid import decompose_grid
from repro.server import OracleClient, OracleServer, ServerConfig
from repro.shard import ReplicaPool, ShardRouter
from repro.workloads.generators import grid_digraph

pytestmark = pytest.mark.multiproc


def integer_workload(side: int = 10, seed: int = 0, *, negative: bool = False):
    """Integer-weight grid (optionally potential-shifted negative) + tree."""
    rng = np.random.default_rng(seed)
    g = grid_digraph((side, side), rng)
    w = np.round(g.weight * 8.0).astype(np.float64)
    if negative:
        p = rng.integers(0, 12, size=g.n).astype(np.float64)
        w = w + p[g.src] - p[g.dst]
    g = WeightedDigraph(g.n, g.src, g.dst, w)
    return g, decompose_grid(g, (side, side), leaf_size=4)


@pytest.fixture(autouse=True)
def no_shm_leaks():
    """Every fleet test must leave /dev/shm clean."""
    before = set(orphaned_segments())
    yield
    leaked = set(orphaned_segments()) - before
    assert not leaked, f"leaked segments: {sorted(leaked)}"


class TestProcessFleetEquivalence:
    @pytest.mark.parametrize("k", [2, 4])
    def test_seeded_property_bit_identical(self, k):
        """Satellite: distances (incl. ∞ rows and negative weights) are
        bit-identical across shard plans vs the direct engine."""
        rng = np.random.default_rng(k)
        g, tree = integer_workload(10, seed=k, negative=True)
        # make a few vertices unreachable: a forward-only tail appended to
        # the grid reaches nothing, so its columns go ∞ for most sources
        oracle = ShortestPathOracle.build(g, tree)
        srcs = np.unique(rng.integers(0, g.n, size=24))
        want = oracle.distances(srcs)
        with ShardRouter(g, tree, k=k, backend="process") as router:
            got = router.query(srcs)
            # repeat with a different batch to exercise warm workers
            srcs2 = np.unique(rng.integers(0, g.n, size=9))
            got2 = router.query(srcs2)
        assert np.array_equal(got, want)
        assert np.array_equal(got2, oracle.distances(srcs2))

    def test_unreachable_rows_process_backend(self):
        n = 40
        rng = np.random.default_rng(2)
        w = rng.integers(1, 9, size=n - 1).astype(np.float64)
        g = WeightedDigraph(n, np.arange(n - 1), np.arange(1, n), w)
        from repro.separators.spectral import decompose_spectral

        tree = decompose_spectral(g, leaf_size=4)
        oracle = ShortestPathOracle.build(g, tree)
        srcs = [0, 17, 39]
        want = oracle.distances(srcs)
        assert np.isinf(want).any()
        with ShardRouter(g, tree, k=2, backend="process") as router:
            assert np.array_equal(router.query(srcs), want)


class TestFleetSupervision:
    """Supervision of the one-worker-per-shard fleet (``replicas=1``),
    which the :class:`ReplicaPool` runs like any other replica count."""

    def test_crash_restart_is_warm_and_exact(self, tmp_path):
        g, tree = integer_workload(10, seed=1)
        oracle = ShortestPathOracle.build(g, tree)
        cfg = OracleConfig(cache="readwrite", cache_dir=str(tmp_path))
        srcs = list(range(0, g.n, 9))
        want = oracle.distances(srcs)
        with ShardRouter(g, tree, cfg, k=2, backend="process") as router:
            pool = router._fleet
            assert isinstance(pool, ReplicaPool)
            assert np.array_equal(router.query(srcs), want)
            victim = pool.replicas[0][0]
            old_pid = victim.pid
            victim.send_request("crash")  # worker os._exit(1)s, no cleanup
            victim.process.join(10)
            assert not victim.alive
            # next batch detects the corpse, restarts, answers exactly
            assert np.array_equal(router.query(srcs), want)
            assert pool.restarts_total == 1
            assert victim.pid != old_pid
            # respawn was warm: the shard augmentation came from the store
            assert victim.ready_info["cache_status"] == "hit"
            stats = router.stats()
            assert stats["restarts_total"] == 1
            assert stats["per_shard"][0]["workers"][0]["restarts"] == 1

    def test_health_check_restarts_dead_worker(self):
        g, tree = integer_workload(8, seed=2)
        with ShardRouter(g, tree, k=2, backend="process") as router:
            pool = router._fleet
            pool.replicas[1][0].kill()
            report = router.health_check()
            assert report["restarted"] == [(1, 0)]
            assert pool.replicas[1][0].alive

    def test_stats_not_blocked_by_crashed_worker(self):
        """Regression: ``stats`` on a fleet with a dead worker returns
        immediately with last-known counters + ``stale: true`` instead of
        blocking on the corpse's pipe — and never restarts."""
        g, tree = integer_workload(8, seed=10)

        def workers(snap):
            return [w for s in snap["per_shard"] for w in s["workers"]]

        with ShardRouter(g, tree, k=2, backend="process") as router:
            pool = router._fleet
            router.query([0, 3])
            live = workers(pool.stats())
            assert [w["stale"] for w in live] == [False, False]
            assert all("queue_depth" in w for w in live)
            pool.replicas[0][0].kill()
            t0 = time.perf_counter()
            snap = workers(pool.stats())
            elapsed = time.perf_counter() - t0
            assert elapsed < 5.0, f"stats blocked {elapsed:.1f}s on dead worker"
            assert snap[0]["stale"] is True
            assert snap[1]["stale"] is False
            # last-known engine counters survive from the earlier probe
            assert snap[0]["rows"] == live[0]["rows"]
            assert pool.restarts_total == 0  # stats must never restart
            # the canonical router schema carries the marker through
            rstats = router.stats()
            for key in SERVING_STATS_KEYS:
                assert key in rstats, key
            assert rstats["per_shard"][0]["workers"][0]["stale"] is True
            # restore for a clean drain (health_check owns restarts)
            assert pool.health_check()["restarted"] == [(0, 0)]

    def test_pinning_smoke(self):
        g, tree = integer_workload(8, seed=3)
        cpus = sorted(os.sched_getaffinity(0))
        with ShardRouter(g, tree, k=2, backend="process", pin=True) as router:
            oracle = ShortestPathOracle.build(g, tree)
            assert np.array_equal(router.query([0, 5]), oracle.distances([0, 5]))
            for i, shard_stats in enumerate(router.stats()["per_shard"]):
                (worker,) = shard_stats["workers"]
                assert worker["pinned_cpu"] == cpus[i % len(cpus)]

    def test_replica_pinning_round_robin(self):
        """With replicas, every worker reports the CPU it was pinned to,
        assigned round-robin over the affinity mask across all workers
        (shard 0's replicas first, then shard 1's)."""
        g, tree = integer_workload(8, seed=3)
        cpus = sorted(os.sched_getaffinity(0))
        cfg = OracleConfig(replicas=2)
        with ShardRouter(g, tree, cfg, k=2, backend="process", pin=True) as router:
            oracle = ShortestPathOracle.build(g, tree)
            assert np.array_equal(router.query([0, 5]), oracle.distances([0, 5]))
            per_shard = router.stats()["per_shard"]
        pinned = [w["pinned_cpu"] for s in per_shard for w in s["workers"]]
        assert pinned == [cpus[i % len(cpus)] for i in range(4)]


class TestReplicaPool:
    """The replicated fleet tier (tentpole): lifecycle (spawn → warm
    respawn → drain-retire), skewed-workload bit-identity across replica
    counts, queue-wait-driven autoscale, and the epoch-guarded reweight
    broadcast under concurrent load."""

    def test_lifecycle_spawn_promote_crash_retire(self, tmp_path):
        g, tree = integer_workload(10, seed=6)
        oracle = ShortestPathOracle.build(g, tree)
        cfg = OracleConfig(
            replicas=2, max_replicas=3,
            cache="readwrite", cache_dir=str(tmp_path),
        )
        srcs = list(range(0, g.n, 7))
        want = oracle.distances(srcs)
        with ShardRouter(g, tree, cfg, k=2, backend="process") as router:
            pool = router._fleet
            assert isinstance(pool, ReplicaPool)
            assert isinstance(pool, ServingBackend)
            assert np.array_equal(router.query(srcs), want)
            # scale out: a background spawn warms from the augmentation
            # store and is promoted only once ready
            h = pool.spawn_replica(0)
            assert len(pool.replicas[0]) == 2  # not dispatchable yet
            for _ in range(600):
                if pool._promote_warming():
                    break
                time.sleep(0.05)
            else:
                pytest.fail("warming replica never became ready")
            assert len(pool.replicas[0]) == 3
            assert h.ready_info["cache_status"] == "hit"  # PR-4 warm path
            assert np.array_equal(router.query(srcs), want)
            # crash one replica: serving continues exactly, supervision
            # respawns it warm
            victim = pool.replicas[0][1]
            old_pid = victim.pid
            victim.send_request("crash")
            victim.process.join(10)
            assert np.array_equal(router.query(srcs), want)
            pool.health_check()
            assert pool.restarts_total >= 1
            assert victim.alive and victim.pid != old_pid
            assert victim.ready_info["cache_status"] == "hit"
            # drain-retire back to base; serving unaffected
            pool.retire_replica(0)
            assert len(pool.replicas[0]) == 2
            assert np.array_equal(router.query(srcs), want)
            # stats: canonical schema + per-shard replica breakdown
            snap = pool.stats()
            for key in SERVING_STATS_KEYS:
                assert key in snap, key
            assert snap["backend"] == "replicated"
            assert snap["workers"] == 4
            assert snap["per_shard"][0]["replicas"] == 2
            assert snap["per_shard"][0]["warming"] == 0
            assert len(snap["per_shard"][0]["workers"]) == 2

    @pytest.mark.parametrize("replicas", [1, 2, 3])
    def test_skewed_hot_shard_bit_identical(self, replicas):
        """Acceptance property: a 90%-hot-shard workload answers
        bit-identically to the direct engine for every replica count
        (replicas only add capacity, never change results)."""
        g, tree = integer_workload(10, seed=7, negative=True)
        oracle = ShortestPathOracle.build(g, tree)
        rng = np.random.default_rng(replicas)
        cfg = OracleConfig(replicas=replicas)
        with ShardRouter(g, tree, cfg, k=2, backend="process") as router:
            assert isinstance(router._fleet, ReplicaPool)
            assert [len(grp) for grp in router._fleet.replicas] == [replicas] * 2
            home = router.plan.home
            hot = np.flatnonzero(home == 0)
            cold = np.flatnonzero(home != 0)
            srcs = np.concatenate(
                [hot, rng.permutation(cold)[: max(1, hot.size // 9)]]
            )
            want = oracle.distances(srcs)
            got = router.query(srcs)
            got2 = router.query(srcs[:13])  # second batch on warm replicas
        assert np.array_equal(got, want)
        assert np.array_equal(got2, want[:13])

    def test_autoscale_up_then_down(self):
        g, tree = integer_workload(8, seed=8)
        oracle = ShortestPathOracle.build(g, tree)
        cfg = OracleConfig(replicas=1, max_replicas=2, autoscale_target_p99_ms=1e-3)
        srcs = np.arange(g.n)
        want = oracle.distances(srcs)
        with ShardRouter(g, tree, cfg, k=2, backend="process") as router:
            pool = router._fleet
            assert pool.base_replicas == 1 and pool.max_replicas == 2
            pool.cooldown_s = 0.0
            pool.dispatch_rows = 4  # many chunks → measurable queue waits
            # any real queue wait beats the microscopic target → scale up
            assert np.array_equal(router.query(srcs), want)
            assert pool.scale_ups >= 1
            for _ in range(600):
                pool._promote_warming()
                if sum(len(grp) for grp in pool.replicas) == 3:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("autoscaled replica never promoted")
            assert np.array_equal(router.query(srcs), want)  # still exact
            # p99 now sits far below an enormous target → drain-retire
            # (the pre-flip batch may have started a second scale-up, so
            # loop until the pool is back at base size)
            pool.autoscale_target_p99_ms = 1e9
            for _ in range(100):
                assert np.array_equal(router.query(srcs[::5]), want[::5])
                total = sum(len(grp) for grp in pool.replicas) + sum(
                    len(grp) for grp in pool.warming
                )
                if pool.scale_downs >= 1 and total == 2:
                    break
                time.sleep(0.05)
            assert pool.scale_downs >= 1
            assert sum(len(grp) for grp in pool.replicas) == 2
            snap = pool.stats()
            assert snap["scale_ups"] >= 1 and snap["scale_downs"] >= 1
            assert snap["autoscale_target_p99_ms"] == 1e9

    def test_reweight_broadcast_under_concurrent_load(self):
        """Acceptance: reweight while queries hammer the pool — zero
        failed queries, every answer from a coherent epoch, and the flip
        lands on every replica."""
        g, tree = integer_workload(10, seed=9)
        oracle1 = ShortestPathOracle.build(g, tree)
        w2 = np.round(np.abs(g.weight)) + 3.0
        oracle2 = ShortestPathOracle.build(
            WeightedDigraph(g.n, g.src, g.dst, w2), tree
        )
        srcs = np.arange(0, g.n, 5)
        want1 = oracle1.distances(srcs)
        want2 = oracle2.distances(srcs)
        assert not np.array_equal(want1, want2)
        cfg = OracleConfig(replicas=2)
        with ShardRouter(g, tree, cfg, k=2, backend="process") as router:
            assert isinstance(router._fleet, ReplicaPool)
            errors: list = []
            stop = threading.Event()

            def hammer():
                try:
                    while not stop.is_set():
                        got = router.query(srcs)
                        if not (
                            np.array_equal(got, want1)
                            or np.array_equal(got, want2)
                        ):
                            errors.append("torn answer across epochs")
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=hammer) for _ in range(2)]
            for t in threads:
                t.start()
            time.sleep(0.2)
            res = router.reweight(w2)
            assert res["weights_epoch"] == 1
            time.sleep(0.3)
            stop.set()
            for t in threads:
                t.join(60)
            assert not errors, errors
            assert router.weights_epoch == 1
            assert router._fleet.weights_epoch == 1
            # every replica of every shard serves the new epoch
            for group in router._fleet.replicas:
                for h in group:
                    assert int(h.call("stats")["weights_epoch"]) == 1
            assert np.array_equal(router.query(srcs), want2)


class TestServedFleet:
    def test_server_over_fleet_with_engine_factory(self, tmp_path):
        g, tree = integer_workload(10, seed=4)
        oracle = ShortestPathOracle.build(g, tree)
        sock = str(tmp_path / "fleet.sock")
        server = OracleServer(
            oracle,
            OracleConfig(shards=2),
            ServerConfig(path=sock),
            engine_factory=lambda: oracle.shard_fleet(2, backend="process"),
        )
        loop = asyncio.new_event_loop()
        started = threading.Event()

        async def main():
            await server.start()
            started.set()
            await server.serve_forever()

        def run():
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(main())
            finally:
                loop.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert started.wait(120), "fleet server failed to start"
        try:
            assert isinstance(server.engine, ShardRouter)
            with OracleClient(sock, timeout=60.0) as client:
                srcs = [0, 9, 55, 90]
                got = client.distances(srcs)
                assert np.allclose(got, oracle.distances(srcs))
                stats = client.stats()
                assert stats["engine"]["engine"] == "sharded"
                assert stats["engine"]["workers"] == 2
                assert len(stats["engine"]["per_shard"]) == 2
                assert stats["engine"]["last_batch"]["rows"] == len(srcs)
        finally:
            loop.call_soon_threadsafe(server.request_shutdown)
            thread.join(60)
        assert not thread.is_alive(), "fleet server failed to stop"
        assert orphaned_segments() == []  # fleet drained with the server


def test_worker_close_is_graceful(tmp_path):
    """Direct WorkerHandle lifecycle: spawn → ready → query → close."""
    from repro.shard.partition import make_shard_plan
    from repro.shard.worker import WorkerHandle

    g, tree = integer_workload(8, seed=5)
    plan = make_shard_plan(g, tree, 2)
    shard = plan.shards[0]
    h = WorkerHandle(0, shard.graph, shard.tree, shard.boundary_local, OracleConfig())
    h.spawn()
    info = h.wait_ready()
    assert info["pid"] == h.pid
    payload = h.call("query", np.array([0, 1], dtype=np.int64))
    rows = h.fetch_rows(payload)
    assert rows.shape == (2, shard.n)
    with pytest.raises(RuntimeError, match="unknown worker op"):
        h.call("frobnicate")
    h.close()
    assert not h.alive
