"""Zero-copy shared-memory plane: arena unit tests, backend equivalence
(bit-equal augmentations and ledgers across serial/thread/shm on two
semirings, with negative weights and negative cycles), and /dev/shm leak
checks.

Pool-spawning tests carry the ``multiproc`` marker; the default fast lane
(``-m "not multiproc"``) still exercises the arena itself in-process.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from tests.conftest import assert_distances_equal, reference_apsp
from repro.core.augment import NegativeCycleDetected
from repro.core.doubling import augment_doubling
from repro.core.doubling_shared import augment_doubling_shared
from repro.core.leaves_up import augment_leaves_up
from repro.core.semiring import BOOLEAN
from repro.core.sssp import sssp_scheduled
from repro.pram.executor import LocalArena
from repro.pram.machine import Ledger
from repro.pram.shm import ArrayRef, ShmArena, as_array, orphaned_segments, resolve
from repro.separators.grid import decompose_grid
from repro.workloads.generators import grid_digraph

BUILDERS = {
    "leaves_up": augment_leaves_up,
    "doubling": augment_doubling,
    "doubling_shared": augment_doubling_shared,
}


@pytest.fixture(params=list(BUILDERS))
def build(request):
    return BUILDERS[request.param]


class TestShmArena:
    def test_publish_roundtrip(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((13, 7))
        with ShmArena() as arena:
            ref = arena.publish(a)
            assert isinstance(ref, ArrayRef)
            assert ref.shape == (13, 7) and np.dtype(ref.dtype) == a.dtype
            view = as_array(ref)
            assert np.array_equal(view, a)
            # The view aliases the segment, not the source array.
            assert not np.shares_memory(view, a)
        assert orphaned_segments() == []

    def test_alloc_alignment_and_write_through(self):
        with ShmArena() as arena:
            refs = [arena.alloc((3, 3), np.float64) for _ in range(5)]
            for i, (ref, view) in enumerate(refs):
                assert ref.offset % 64 == 0
                view[...] = i
            for i, (ref, _) in enumerate(refs):
                assert (as_array(ref) == i).all()

    def test_alloc_int_shape_and_bool_dtype(self):
        with ShmArena() as arena:
            ref, view = arena.alloc(10, bool)
            view[...] = True
            assert ref.shape == (10,) and as_array(ref).all()

    def test_publish_non_contiguous(self):
        a = np.arange(24.0).reshape(4, 6)[:, ::2]
        with ShmArena() as arena:
            assert np.array_equal(as_array(arena.publish(a)), a)

    def test_grows_across_segments(self):
        with ShmArena(chunk_bytes=4096) as arena:
            refs = [arena.publish(np.arange(1024.0)) for _ in range(4)]
            assert len(arena.segment_names) >= 4
            for r in refs:
                assert np.array_equal(as_array(r), np.arange(1024.0))
        assert orphaned_segments() == []

    def test_oversized_array_gets_own_segment(self):
        big = np.ones(5000, dtype=np.float64)  # > chunk_bytes
        with ShmArena(chunk_bytes=4096) as arena:
            assert np.array_equal(as_array(arena.publish(big)), big)
        assert orphaned_segments() == []

    def test_resolve_recurses_containers(self):
        with ShmArena() as arena:
            a = np.arange(6.0)
            ref = arena.publish(a)
            payload = {"x": ref, "nested": [(ref, 1), {"y": ref}], "z": "s"}
            out = resolve(payload)
            assert np.array_equal(out["x"], a)
            assert np.array_equal(out["nested"][0][0], a)
            assert out["nested"][0][1] == 1
            assert np.array_equal(out["nested"][1]["y"], a)
            assert out["z"] == "s"

    def test_resolve_keeps_shared_containers_shared(self):
        with ShmArena() as arena:
            d = {"x": arena.publish(np.arange(3.0))}
            out = resolve(pickle.loads(pickle.dumps({"phases": [d, d, {"x": d["x"]}]})))
            first, again, other = out["phases"]
            assert first is again and other is not first
            assert np.array_equal(other["x"], first["x"])

    def test_repeated_phases_give_repeated_relaxers_after_the_wire(self, grid6_negative):
        # The spec shm workers receive: each distinct relaxer published once,
        # repeated (prefix/suffix) phases sharing one dict.
        from repro.core.api import ShortestPathOracle
        from repro.core.query import _ENGINE_CACHE, QueryEngine, _shard_relaxers

        g, tree = grid6_negative
        aug = ShortestPathOracle.build(g, tree).augmentation
        relaxers = aug.schedule().relaxers
        with ShmArena() as arena:
            phases = QueryEngine._publish_phases(relaxers, arena)
            distinct = len({id(ph) for ph in phases})
            assert distinct < len(phases)  # the workload does repeat phases
            spec = {
                "engine_id": "test-repeated-phases",
                "token": "test-repeated-phases.0",
                "semiring": aug.semiring.name,
                "kernel": aug.kernel,
                "phases": phases,
            }
            got = _shard_relaxers(resolve(pickle.loads(pickle.dumps(spec))))
            _ENGINE_CACHE.pop(spec["engine_id"])
            assert len(got) == len(phases)
            assert len({id(r) for r in got}) == distinct

    def test_release_unlinked_unmaps_only_unlinked_segments(self):
        from repro.pram import shm

        closing, live = ShmArena(), ShmArena()
        ref = closing.publish(np.arange(4.0))
        live_ref = live.publish(np.ones(2))
        assert as_array(ref).sum() == 6.0 and as_array(live_ref).sum() == 2.0
        closing.close()
        shm.release_unlinked()
        assert ref.segment not in shm._ATTACHED
        assert live_ref.segment in shm._ATTACHED
        assert as_array(live_ref).sum() == 2.0
        live.close()
        shm.release_unlinked()
        assert live_ref.segment not in shm._ATTACHED
        assert orphaned_segments() == []

    def test_close_is_idempotent_and_unlinks(self):
        arena = ShmArena()
        arena.publish(np.ones(3))
        names = list(arena.segment_names)
        assert names
        arena.close()
        arena.close()
        assert orphaned_segments() == []
        for name in names:
            with pytest.raises(FileNotFoundError):
                as_array(ArrayRef(name, 0, (3,), "float64"))

    def test_allocated_bytes_monotone(self):
        with ShmArena() as arena:
            b0 = arena.allocated_bytes
            arena.publish(np.ones(100))
            assert arena.allocated_bytes >= b0 + 800


@pytest.fixture
def arena_blocks(monkeypatch):
    """Every block any arena allocates during the test (orchestrator-side
    views), to check that returned matrices never alias arena memory."""
    blocks = []

    def recording(alloc):
        def wrapped(self, shape, dtype):
            handle, view = alloc(self, shape, dtype)
            blocks.append(view)
            return handle, view

        return wrapped

    for cls in (LocalArena, ShmArena):
        monkeypatch.setattr(cls, "alloc", recording(cls.alloc))
    return blocks


def _built(build, g, tree, *args, **kwargs):
    ledger = Ledger()
    return build(g, tree, *args, ledger=ledger, **kwargs), ledger


@pytest.mark.parametrize(
    "executor", ["thread:2", pytest.param("shm:2", marks=pytest.mark.multiproc)]
)
class TestShmBackendEquivalence:
    """Every executor must reproduce the serial augmentation bit for bit:
    E⁺, leaf diameters, node matrices, and the ledger's work and depth."""

    def test_min_plus_negative_weights(self, grid6_negative, build, executor, arena_blocks):
        g, tree = grid6_negative
        base, base_ledger = _built(build, g, tree, keep_node_distances=True)
        del arena_blocks[:]
        alt, alt_ledger = _built(build, g, tree, executor=executor, keep_node_distances=True)
        assert np.array_equal(base.src, alt.src)
        assert np.array_equal(base.dst, alt.dst)
        assert np.array_equal(base.weight, alt.weight)
        assert base.leaf_diameters == alt.leaf_diameters
        assert (base_ledger.work, base_ledger.depth) == (alt_ledger.work, alt_ledger.depth)
        assert arena_blocks
        for idx, nd in base.node_distances.items():
            got = alt.node_distances[idx]
            assert np.array_equal(nd.vertices, got.vertices)
            assert np.array_equal(nd.matrix, got.matrix)
            assert not any(np.shares_memory(got.matrix, blk) for blk in arena_blocks)
        assert orphaned_segments() == []
        assert_distances_equal(sssp_scheduled(alt, [0, 7]), reference_apsp(g)[[0, 7]])

    def test_boolean_semiring(self, grid7, build, executor):
        g, tree = grid7
        base, base_ledger = _built(build, g, tree, BOOLEAN, keep_node_distances=False)
        alt, alt_ledger = _built(
            build, g, tree, BOOLEAN, executor=executor, keep_node_distances=False
        )
        assert np.array_equal(base.src, alt.src)
        assert np.array_equal(base.dst, alt.dst)
        assert np.array_equal(base.weight, alt.weight)
        assert base.leaf_diameters == alt.leaf_diameters
        assert (base_ledger.work, base_ledger.depth) == (alt_ledger.work, alt_ledger.depth)
        assert orphaned_segments() == []

    def test_negative_cycle_detected_and_no_leak(self, build, executor):
        g = grid_digraph((4, 4), None)
        g = g.with_extra_edges([0, 1], [1, 0], [-3.0, 1.0])
        tree = decompose_grid(g, (4, 4), leaf_size=4)
        with pytest.raises(NegativeCycleDetected):
            build(g, tree, executor=executor)
        assert orphaned_segments() == []


def _touch(payload):
    return float(np.asarray(payload["a"]).sum())


def _explode(payload):
    raise RuntimeError("worker crashed mid-task")


@pytest.mark.multiproc
class TestShmLifecycle:
    def test_descriptor_payloads_resolve_in_workers(self):
        from repro.pram.executor import get_executor

        exe = get_executor("shm:2")
        try:
            with ShmArena() as arena:
                ref = arena.publish(np.arange(10.0))
                got = exe.map(_touch, [{"a": ref}, {"a": ref}])
            assert got == [45.0, 45.0]
        finally:
            exe.close()
        assert orphaned_segments() == []

    def test_no_leak_after_worker_crash(self):
        from repro.pram.executor import get_executor

        exe = get_executor("shm:2")
        try:
            with ShmArena() as arena:
                ref = arena.publish(np.ones(8))
                with pytest.raises(RuntimeError):
                    exe.map(_explode, [{"a": ref}])
        finally:
            exe.close()
        assert orphaned_segments() == []
