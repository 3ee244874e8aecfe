"""Tests for incremental reweighting and the epoch hot-swap serving path.

Paper comment (iv): the separator decomposition — and with it the E⁺
*structure* — depends only on the unweighted skeleton.
:meth:`ShortestPathOracle.with_new_weights` exploits this by replaying the
retained build provenance (:class:`repro.core.reweight.ReweightPlan`) as a
weight-only leaves-up sweep; the property asserted throughout this file is
that the replay is **bit-identical** to a cold rebuild — same E⁺ arrays,
same served distances — dense and sparse, across semirings, including
negative weights and +inf deltas, on grids and on the programmable-μ
multilevel family.  The serving half (QueryEngine generations, router /
fleet epochs, server RPC) is covered at the bottom.
"""

import importlib.util
import os

import numpy as np
import pytest

from repro import ShortestPathOracle
from repro.core.augment import Augmentation, NegativeCycleDetected
from repro.core.config import OracleConfig
from repro.core.query import QueryEngine
from repro.separators.grid import decompose_grid
from repro.workloads.generators import apply_potential_weights, grid_digraph
from repro.workloads.synthetic import separator_programmable_family


def _reweighted_graph(g, weight):
    return type(g)(g.n, g.src, g.dst, np.asarray(weight, dtype=g.weight.dtype))


def _assert_bit_identical(got: ShortestPathOracle, cold: ShortestPathOracle, srcs):
    """The replay's E⁺ and its served distances equal the cold rebuild's,
    to the bit (the sweep replays the exact builder kernels)."""
    a, b = got.augmentation, cold.augmentation
    assert np.array_equal(a.src, b.src)
    assert np.array_equal(a.dst, b.dst)
    assert np.array_equal(a.weight, b.weight)
    assert np.array_equal(got.distances(srcs), cold.distances(srcs))


@pytest.fixture
def grid10(rng):
    g = grid_digraph((10, 10), rng)
    tree = decompose_grid(g, (10, 10), leaf_size=4)
    return g, tree


class TestBitIdentityDense:
    def test_minplus_float(self, rng, grid10):
        g, tree = grid10
        oracle = ShortestPathOracle.build(g, tree, method="leaves_up")
        w2 = rng.uniform(0.5, 20.0, size=g.m)
        got = oracle.with_new_weights(w2)
        cold = ShortestPathOracle.build(_reweighted_graph(g, w2), tree, method="leaves_up")
        _assert_bit_identical(got, cold, [0, 17, 55, 99])
        assert got.augmentation.weights_epoch == 1
        assert got.cache_info["status"] == "reweight"

    def test_minplus_negative_weights(self, rng, grid10):
        g, tree = grid10
        oracle = ShortestPathOracle.build(g, tree, method="leaves_up")
        gn = apply_potential_weights(g, rng)  # negative but cycle-free
        assert (gn.weight < 0).any()
        got = oracle.with_new_weights(gn.weight)
        cold = ShortestPathOracle.build(gn, tree, method="leaves_up")
        _assert_bit_identical(got, cold, [0, 42, 99])

    def test_minplus_integer_valued(self, rng, grid10):
        g, tree = grid10
        oracle = ShortestPathOracle.build(g, tree, method="leaves_up")
        w2 = np.round(g.weight * 7.0) + 1.0
        got = oracle.with_new_weights(w2)
        cold = ShortestPathOracle.build(_reweighted_graph(g, w2), tree, method="leaves_up")
        _assert_bit_identical(got, cold, list(range(0, 100, 9)))

    def test_boolean_semiring(self, rng, grid10):
        """Boolean reachability: reweighting toggles edge presence (zero
        weight = absent under the bool cast)."""
        g, tree = grid10
        cfg = OracleConfig(method="leaves_up", semiring="boolean")
        oracle = ShortestPathOracle.build(g, tree, config=cfg)
        w2 = (rng.uniform(size=g.m) < 0.6).astype(np.float64)
        got = oracle.with_new_weights(w2)
        cold = ShortestPathOracle.build(_reweighted_graph(g, w2), tree, config=cfg)
        _assert_bit_identical(got, cold, [0, 31, 99])

    def test_maxmin_semiring(self, rng, grid10):
        g, tree = grid10
        cfg = OracleConfig(method="leaves_up", semiring="max-min")
        oracle = ShortestPathOracle.build(g, tree, config=cfg)
        w2 = rng.uniform(0.0, 100.0, size=g.m)
        got = oracle.with_new_weights(w2)
        cold = ShortestPathOracle.build(_reweighted_graph(g, w2), tree, config=cfg)
        _assert_bit_identical(got, cold, [0, 50, 99])

    @pytest.mark.parametrize("mu", [0.35, 0.6])
    def test_mu_family(self, rng, mu):
        """The programmable-μ multilevel family: deep trees, chained
        boundaries — the replay must agree there too, not just on grids."""
        g, tree = separator_programmable_family(260, mu, rng)
        oracle = ShortestPathOracle.build(g, tree, method="leaves_up")
        w2 = rng.uniform(1.0, 10.0, size=g.m)
        got = oracle.with_new_weights(w2)
        cold = ShortestPathOracle.build(_reweighted_graph(g, w2), tree, method="leaves_up")
        _assert_bit_identical(got, cold, [0, g.n // 2, g.n - 1])

    def test_reverse_graph(self, rng, grid10):
        """``graph=`` accepts any same-skeleton graph — the reverse
        orientation goes through the rebuild fallback (src/dst change)."""
        g, tree = grid10
        oracle = ShortestPathOracle.build(g, tree, method="leaves_up")
        got = oracle.with_new_weights(graph=g.reverse())
        cold = ShortestPathOracle.build(g.reverse(), tree, method="leaves_up")
        assert np.array_equal(got.distances([0, 9]), cold.distances([0, 9]))


class TestBitIdentitySparse:
    def test_sparse_delta_on_lineage(self, rng, grid10):
        """A 1%-edge delta on an oracle produced by a reweight takes the
        restricted root-path sweep and still matches a cold rebuild."""
        g, tree = grid10
        base = ShortestPathOracle.build(g, tree, method="leaves_up")
        w1 = rng.uniform(1.0, 9.0, size=g.m)
        o1 = base.with_new_weights(w1)  # o1 carries the retained heap
        dirty = rng.choice(g.m, size=max(2, g.m // 100), replace=False)
        w2 = w1.copy()
        w2[dirty] = rng.uniform(1.0, 9.0, size=dirty.size)
        got = o1.with_new_weights(weight_delta=(dirty, w2[dirty]))
        cold = ShortestPathOracle.build(_reweighted_graph(g, w2), tree, method="leaves_up")
        _assert_bit_identical(got, cold, [0, 33, 66, 99])
        assert got.augmentation.weights_epoch == 2

    def test_dict_delta_and_idempotence(self, rng, grid10):
        """Deltas are absolute assignments — replaying the same delta is a
        no-op (the property the client/server retry policy relies on)."""
        g, tree = grid10
        base = ShortestPathOracle.build(g, tree, method="leaves_up")
        o1 = base.with_new_weights(rng.uniform(1.0, 9.0, size=g.m))
        delta = {3: 42.0, 17: 0.5}
        o2 = o1.with_new_weights(weight_delta=delta)
        o3 = o2.with_new_weights(weight_delta=delta)
        assert np.array_equal(o2.graph.weight, o3.graph.weight)
        assert np.array_equal(o2.distances([0, 50]), o3.distances([0, 50]))

    def test_inf_delta_disconnects(self, rng, grid10):
        """Setting edges to +inf (min-plus 0̄) must reproduce the cold
        rebuild's +inf rows exactly — deleted edges, possibly unreachable
        vertices."""
        g, tree = grid10
        base = ShortestPathOracle.build(g, tree, method="leaves_up")
        o1 = base.with_new_weights(g.weight.copy())
        # Sever every edge out of vertex 0's corner neighborhood.
        dirty = np.nonzero((g.src == 0) | (g.dst == 0))[0]
        w2 = o1.graph.weight.copy()
        w2[dirty] = np.inf
        got = o1.with_new_weights(weight_delta=(dirty, w2[dirty]))
        cold = ShortestPathOracle.build(_reweighted_graph(g, w2), tree, method="leaves_up")
        _assert_bit_identical(got, cold, [0, 1, 99])
        assert np.isinf(got.distances([0])[0][1:]).all()

    def test_cold_ancestor_densifies_first_delta(self, rng, grid10):
        """A cold-built oracle has no retained heap — its first sparse
        delta silently runs the dense sweep and is still exact."""
        g, tree = grid10
        base = ShortestPathOracle.build(g, tree, method="leaves_up")
        assert getattr(base.augmentation, "_reweight_state", None) is None
        got = base.with_new_weights(weight_delta={5: 99.0})
        w2 = g.weight.copy()
        w2[5] = 99.0
        cold = ShortestPathOracle.build(_reweighted_graph(g, w2), tree, method="leaves_up")
        _assert_bit_identical(got, cold, [0, 99])
        # ... and the produced oracle now has the heap for real sparsity.
        assert getattr(got.augmentation, "_reweight_state", None) is not None

    def test_plan_shared_along_lineage(self, rng, grid10):
        g, tree = grid10
        base = ShortestPathOracle.build(g, tree, method="leaves_up")
        o1 = base.with_new_weights(rng.uniform(1.0, 5.0, size=g.m))
        o2 = o1.with_new_weights(rng.uniform(1.0, 5.0, size=g.m))
        assert base._reweight_plan is not None
        assert o1._reweight_plan is base._reweight_plan
        assert o2._reweight_plan is base._reweight_plan


class TestModesAndErrors:
    def test_incremental_requires_leaves_up(self, rng, grid10):
        g, tree = grid10
        oracle = ShortestPathOracle.build(g, tree, method="doubling")
        with pytest.raises(ValueError, match="incremental"):
            oracle.with_new_weights(g.weight * 2.0, reweight="incremental")

    def test_auto_falls_back_to_rebuild(self, rng, grid10):
        g, tree = grid10
        oracle = ShortestPathOracle.build(g, tree, method="doubling")
        w2 = np.round(g.weight * 3.0) + 1.0
        got = oracle.with_new_weights(w2)  # auto → rebuild, no raise
        cold = ShortestPathOracle.build(_reweighted_graph(g, w2), tree, method="doubling")
        assert np.array_equal(got.distances([0, 9]), cold.distances([0, 9]))
        assert got.augmentation.weights_epoch == 1

    def test_rebuild_mode_matches_incremental(self, rng, grid10):
        g, tree = grid10
        oracle = ShortestPathOracle.build(g, tree, method="leaves_up")
        w2 = rng.uniform(1.0, 9.0, size=g.m)
        inc = oracle.with_new_weights(w2, reweight="incremental")
        reb = oracle.with_new_weights(w2, reweight="rebuild")
        _assert_bit_identical(inc, reb, [0, 50, 99])

    def test_exactly_one_input(self, grid10):
        g, tree = grid10
        oracle = ShortestPathOracle.build(g, tree, method="leaves_up")
        with pytest.raises(ValueError):
            oracle.with_new_weights()
        with pytest.raises(ValueError):
            oracle.with_new_weights(g.weight, weight_delta={0: 1.0})

    def test_negative_cycle_raises_and_preserves_serving(self, rng, grid10):
        """A delta creating a negative cycle raises on both paths, and the
        base oracle keeps serving its old weights untouched."""
        g, tree = grid10
        oracle = ShortestPathOracle.build(g, tree, method="leaves_up")
        before = oracle.distances([0, 99])
        # Any reciprocal edge pair is a 2-cycle; make it very negative.
        pair = {(int(s), int(d)): i for i, (s, d) in enumerate(zip(g.src, g.dst))}
        cyc = next(
            (i, pair[(d, s)]) for (s, d), i in pair.items() if (d, s) in pair
        )
        w2 = g.weight.copy()
        w2[list(cyc)] = -50.0
        with pytest.raises(NegativeCycleDetected):
            oracle.with_new_weights(w2, reweight="incremental")
        with pytest.raises(NegativeCycleDetected):
            oracle.with_new_weights(w2, reweight="rebuild")
        assert np.array_equal(oracle.distances([0, 99]), before)


class TestValidateFlag:
    """Satellite (a): ``validate=True`` on the reweight path checks the
    shortcut *weights* only; the structural (tree) validation hides behind
    ``validate="full"``."""

    def test_validate_true_skips_structural(self, rng, grid10, monkeypatch):
        g, tree = grid10
        oracle = ShortestPathOracle.build(g, tree, method="leaves_up")
        called = []
        monkeypatch.setattr(
            type(tree), "validate",
            lambda self, graph, **kw: called.append("structural"),
        )
        oracle.with_new_weights(rng.uniform(1.0, 9.0, size=g.m), validate=True)
        assert called == []
        oracle.with_new_weights(rng.uniform(1.0, 9.0, size=g.m), validate="full")
        assert called == ["structural"]

    def test_validate_actually_runs_weight_check(self, rng, grid10, monkeypatch):
        """Regression: the weight check is live on the incremental path (a
        semiring-name mismatch once made it silently vacuous)."""
        g, tree = grid10
        oracle = ShortestPathOracle.build(g, tree, method="leaves_up")
        monkeypatch.setattr(Augmentation, "verify_edges", lambda self, *a, **k: 1.0)
        with pytest.raises(AssertionError, match="deviate"):
            oracle.with_new_weights(g.weight * 2.0, validate=True)

    def test_validate_passes_on_healthy_replay(self, rng, grid10):
        g, tree = grid10
        oracle = ShortestPathOracle.build(g, tree, method="leaves_up")
        got = oracle.with_new_weights(rng.uniform(1.0, 9.0, size=g.m), validate=True)
        assert got.augmentation.weights_epoch == 1


class TestEngineHotSwap:
    """Satellite (b) + the engine half of the tentpole: arena-generation
    flip, epoch counters, row-LRU invalidation accounting."""

    def test_flip_is_bit_identical_and_counts(self, rng, grid10):
        g, tree = grid10
        # shm executor: the arena generations (pspg<epoch> segments) are
        # observable; serial engines have no arena to flip.
        cfg = OracleConfig(method="leaves_up", executor="shm:2", row_cache=16)
        oracle = ShortestPathOracle.build(g, tree, config=cfg)
        eng = QueryEngine(oracle.augmentation, cfg)
        try:
            srcs = np.array([0, 17, 99])
            eng.query(srcs)  # warm the row LRU on epoch 0
            eng.query(srcs)
            w2 = rng.uniform(1.0, 9.0, size=g.m)
            o2 = oracle.with_new_weights(w2)
            old_segments = list(eng._arena.segment_names)
            assert all("g0" in s for s in old_segments)
            eng.reweight(o2.augmentation)
            assert all("g1" in s for s in eng._arena.segment_names)
            cold = ShortestPathOracle.build(
                _reweighted_graph(g, w2), tree, config=cfg
            )
            assert np.array_equal(eng.query(srcs), cold.distances(srcs))
            st = eng.stats()
            assert st["weights_epoch"] == 1
            assert st["reweights"] == 1
            assert st["row_cache"]["epoch_invalidations"] == 1
            assert st["row_cache"]["rows_epoch_dropped"] >= srcs.size
        finally:
            eng.close()
            oracle.close()

    def test_reweight_rejects_mismatched_augmentation(self, rng, grid10):
        g, tree = grid10
        cfg = OracleConfig(method="leaves_up", executor="serial")
        oracle = ShortestPathOracle.build(g, tree, config=cfg)
        eng = QueryEngine(oracle.augmentation, cfg)
        try:
            g_small = grid_digraph((4, 4), rng)
            tree_small = decompose_grid(g_small, (4, 4), leaf_size=4)
            other = ShortestPathOracle.build(g_small, tree_small, config=cfg)
            with pytest.raises(ValueError):
                eng.reweight(other.augmentation)
        finally:
            eng.close()
            oracle.close()


class TestRouterReweight:
    """Inline-backend fleet epoch flip (the process backend is exercised
    under the ``multiproc`` mark in ``TestFleetReweight``)."""

    def _integral(self, g):
        # Sharded legs recompose sums; integral weights keep float
        # arithmetic exact so bit-identity is well-defined.
        return _reweighted_graph(g, np.round(g.weight * 8.0) + 1.0)

    def test_inline_dense_and_sparse(self, rng, grid10):
        from repro.shard.router import ShardRouter

        g, tree = grid10
        g = self._integral(g)
        cfg = OracleConfig(method="leaves_up", cache="off")
        srcs = np.array([0, 13, 99])
        r = ShardRouter(g, tree, cfg, k=2, backend="inline")
        try:
            w2 = np.round(g.weight * 3.0) + 2.0
            assert r.reweight(w2)["weights_epoch"] == 1
            cold = ShardRouter(
                _reweighted_graph(g, w2), tree, cfg, k=2, backend="inline"
            )
            want = cold.query(srcs)
            cold.close()
            assert np.array_equal(r.query(srcs), want)
            dirty = np.array([0, 7, 200])
            w3 = w2.copy()
            w3[dirty] += 5.0
            assert r.reweight(w3, dirty=dirty)["weights_epoch"] == 2
            cold = ShardRouter(
                _reweighted_graph(g, w3), tree, cfg, k=2, backend="inline"
            )
            want = cold.query(srcs)
            cold.close()
            assert np.array_equal(r.query(srcs), want)
            st = r.stats()
            assert st["weights_epoch"] == 2 and st["reweights"] == 2
            assert all(s["weights_epoch"] == 2 for s in st["per_shard"])
        finally:
            r.close()

    def test_bad_weight_shape(self, rng, grid10):
        from repro.shard.router import ShardRouter

        g, tree = grid10
        r = ShardRouter(g, tree, OracleConfig(cache="off"), k=2, backend="inline")
        try:
            with pytest.raises(ValueError, match="shape"):
                r.reweight(np.ones(3))
        finally:
            r.close()


@pytest.mark.multiproc
class TestFleetReweight:
    def test_process_backend_epoch_flip_and_crash(self, rng, grid10):
        """Worker-process fleet: broadcast reweight, bit-identity, and a
        crash-before-reweight respawn that must land on the new epoch."""
        from repro.shard.router import ShardRouter
        from repro.shard.worker import WorkerCrash

        g, tree = grid10
        g = _reweighted_graph(g, np.round(g.weight * 8.0) + 1.0)
        cfg = OracleConfig(method="leaves_up", cache="off")
        srcs = np.array([0, 42, 99])
        w2 = np.round(g.weight * 2.0) + 3.0
        with ShardRouter(g, tree, cfg, k=2, backend="process") as r:
            with pytest.raises(WorkerCrash):
                r._fleet.replicas[0][0].call("crash")
            assert r.reweight(w2)["weights_epoch"] == 1
            got = r.query(srcs)
            st = r.stats()
            assert st["restarts_total"] == 1
            assert all(
                w["weights_epoch"] == 1
                for s in st["per_shard"] for w in s["workers"]
            )
        with ShardRouter(
            _reweighted_graph(g, w2), tree, cfg, k=2, backend="inline"
        ) as cold:
            assert np.array_equal(got, cold.query(srcs))


class TestLeakCheckerGenerations:
    """Satellite (e) support: the shm leak checker understands the
    per-generation arena tag (``pspg<epoch>_…``)."""

    @pytest.fixture
    def tool(self):
        path = os.path.join(
            os.path.dirname(__file__), "..", "tools", "check_shm_leaks.py"
        )
        spec = importlib.util.spec_from_file_location("check_shm_leaks", path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    @pytest.mark.parametrize(
        "name,shard,epoch",
        [
            ("psp_123_0af3", None, None),
            ("psps2_123_0af3", "2", None),
            ("pspg7_123_0af3", None, "7"),
            ("psps1g4_123_0af3", "1", "4"),
        ],
    )
    def test_segment_regex(self, tool, name, shard, epoch):
        m = tool._SEGMENT_RE.match(name)
        assert m is not None
        got_shard, got_epoch, pid = m.groups()
        assert (got_shard, got_epoch, pid) == (shard, epoch, "123")

    def test_describe_mentions_generation(self, tool):
        assert "epoch 7 generation" in tool.describe("pspg7_123_0af3")
        assert "shard 1 worker" in tool.describe("psps1g4_123_0af3")
        assert tool._SEGMENT_RE.match("notpsp_1_aa") is None
