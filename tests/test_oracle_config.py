"""The :class:`~repro.core.config.OracleConfig` consolidation: kwargs
equivalence, the deprecation shim, serialization, the unified
``query_engine`` parameter set, and the ``with_new_weights``
executor/kernel regression."""

from __future__ import annotations

import inspect
import warnings

import numpy as np
import pytest

from repro import OracleConfig, ShortestPathOracle
from repro.core.config import UNSET, resolve_config
from repro.core.query import QueryEngine
from repro.core.semiring import MIN_PLUS, SEMIRINGS
from repro.core.sssp import sssp_naive


class TestDefaults:
    def test_defaults_mirror_legacy_kwargs(self):
        cfg = OracleConfig()
        assert cfg.method == "leaves_up"
        assert cfg.separator == "auto"
        assert cfg.resolved_semiring is MIN_PLUS
        assert cfg.leaf_size == 8
        assert cfg.executor == "serial"
        assert cfg.kernel is None
        assert cfg.keep_node_distances is False
        assert cfg.validate is False
        assert cfg.engine == "scheduled"
        assert cfg.source_block is None

    @pytest.mark.parametrize(
        "bad", [{"method": "magic"}, {"engine": "warp"}, {"kernel": "fast"},
                {"semiring": "tropical-ish"}, {"executor": "bogus"},
                {"executor": "shm:x"}, {"executor": "thread:0"},
                {"executor": "serial:3"}, {"executor": "process:2"}]
    )
    def test_invalid_values_raise(self, bad):
        with pytest.raises(ValueError):
            OracleConfig(**bad)

    def test_semiring_by_name(self):
        cfg = OracleConfig(semiring="boolean")
        assert cfg.resolved_semiring is SEMIRINGS["boolean"]


class TestMerge:
    def test_kwargs_only_path_is_plain_defaults(self):
        cfg = resolve_config(None, method="doubling", kernel=UNSET)
        assert cfg.method == "doubling" and cfg.kernel is None

    def test_conflicting_kwarg_warns_and_wins(self):
        base = OracleConfig(method="doubling")
        with pytest.warns(DeprecationWarning, match="explicit kwargs win"):
            cfg = resolve_config(base, method="leaves_up")
        assert cfg.method == "leaves_up"

    def test_consistent_kwarg_is_silent(self):
        base = OracleConfig(method="doubling")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = resolve_config(base, method="doubling", executor=UNSET)
        assert cfg == base

    def test_semiring_name_vs_instance_not_a_conflict(self):
        base = OracleConfig(semiring="min-plus")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = resolve_config(base, semiring=MIN_PLUS)
        assert cfg.resolved_semiring is MIN_PLUS


class TestSerialization:
    def test_to_from_dict_round_trip(self):
        cfg = OracleConfig(method="doubling", kernel="blocked", executor="shm:4",
                           engine="naive", leaf_size=6)
        d = cfg.to_dict()
        assert d["semiring"] == "min-plus"
        back = OracleConfig.from_dict(d)
        assert back.method == cfg.method and back.kernel == cfg.kernel
        assert back.executor == cfg.executor and back.engine == cfg.engine
        assert back.resolved_semiring is cfg.resolved_semiring

    def test_unserializable_fields_rejected(self):
        with pytest.raises(TypeError):
            OracleConfig(separator=lambda g, leaf_size: None).to_dict()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown OracleConfig keys"):
            OracleConfig.from_dict({"methd": "leaves_up"})


class TestBuildEquivalence:
    def test_config_build_equals_kwargs_build(self, grid6_negative):
        g, tree = grid6_negative
        via_kwargs = ShortestPathOracle.build(g, tree, method="doubling",
                                              kernel="reference")
        via_config = ShortestPathOracle.build(
            g, tree, config=OracleConfig(method="doubling", kernel="reference")
        )
        assert np.array_equal(via_kwargs.distances([0, 7]), via_config.distances([0, 7]))
        assert via_config.config.method == "doubling"

    def test_build_stores_resolved_config(self, grid6_negative):
        g, tree = grid6_negative
        oracle = ShortestPathOracle.build(g, tree, kernel="blocked")
        assert oracle.config.kernel == "blocked"
        assert oracle.config.method == "leaves_up"

    def test_conflicting_build_kwarg_warns(self, grid6_negative):
        g, tree = grid6_negative
        with pytest.warns(DeprecationWarning):
            oracle = ShortestPathOracle.build(
                g, tree, config=OracleConfig(method="doubling"), method="leaves_up"
            )
        assert oracle.augmentation.method == "leaves_up"


class TestQueryEngineUnification:
    def test_same_parameter_set_same_order(self):
        eng_params = list(inspect.signature(QueryEngine.__init__).parameters)[2:]
        facade_params = list(
            inspect.signature(ShortestPathOracle.query_engine).parameters
        )[1:]
        assert eng_params == facade_params == [
            "config", "executor", "engine", "source_block"
        ]

    def test_query_engine_takes_config(self, grid6_negative):
        g, tree = grid6_negative
        oracle = ShortestPathOracle.build(g, tree)
        cfg = OracleConfig(executor="serial", engine="naive")
        with oracle.query_engine(cfg) as eng:
            assert eng.engine == "naive"
            got = eng.query([0, 5])
        assert np.array_equal(got, sssp_naive(oracle.augmentation, [0, 5]))

    def test_facade_default_is_shm_engine_default_is_serial(self, grid6_negative):
        g, tree = grid6_negative
        oracle = ShortestPathOracle.build(g, tree)
        eng = QueryEngine(oracle.augmentation)
        try:
            assert eng.config.executor == "serial"
        finally:
            eng.close()

    def test_engine_kwarg_overrides_config_with_warning(self, grid6_negative):
        g, tree = grid6_negative
        oracle = ShortestPathOracle.build(g, tree)
        cfg = OracleConfig(executor="serial", engine="scheduled")
        with pytest.warns(DeprecationWarning):
            eng = QueryEngine(oracle.augmentation, cfg, engine="naive")
        try:
            assert eng.engine == "naive"
        finally:
            eng.close()


class TestWithNewWeightsRegression:
    """`with_new_weights` used to rebuild with default executor/kernel,
    silently dropping the original build's choices."""

    def test_executor_and_kernel_survive_rebuild(self, grid6_negative, rng):
        g, tree = grid6_negative
        oracle = ShortestPathOracle.build(
            g, tree, config=OracleConfig(executor="thread:2", kernel="blocked")
        )
        w2 = np.abs(g.weight) + rng.uniform(0.1, 1.0, size=g.m)
        rebuilt = oracle.with_new_weights(w2)
        assert rebuilt.config.executor == "thread:2"
        assert rebuilt.config.kernel == "blocked"
        # and the rebuild is still correct for the new weights
        want = ShortestPathOracle.build(
            g.__class__(g.n, g.src, g.dst, w2), tree
        ).distances([0, 3])
        assert np.allclose(rebuilt.distances([0, 3]), want)

    def test_method_still_follows_augmentation(self, grid6_negative, rng):
        g, tree = grid6_negative
        oracle = ShortestPathOracle.build(
            g, tree, config=OracleConfig(method="doubling", kernel="pruned")
        )
        rebuilt = oracle.with_new_weights(graph=g.reverse())
        assert rebuilt.config.method == "doubling"
        assert rebuilt.config.kernel == "pruned"
