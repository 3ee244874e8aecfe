"""The :class:`~repro.core.protocols.ServingBackend` contract (tier-1, no
subprocesses): every serving tier satisfies the protocol, the unified
stats schema is what :func:`serving_stats` says it is, the replica/
autoscale/admission config knobs validate, and the CLI flag table maps
1:1 onto :class:`~repro.core.config.OracleConfig` fields.
"""

from __future__ import annotations

import argparse

import numpy as np
import pytest

from repro import OracleConfig, ShortestPathOracle
from repro.cli import _CONFIG_FLAG_FIELDS, config_from_args
from repro.core.protocols import (
    SERVING_STATS_KEYS,
    ServingBackend,
    ensure_serving_backend,
    serving_stats,
)
from repro.shard import ShardRouter


@pytest.fixture
def oracle(grid6_negative):
    g, tree = grid6_negative
    return ShortestPathOracle.build(g, tree)


class TestServingBackendProtocol:
    def test_query_engine_satisfies_protocol(self, oracle):
        engine = oracle.query_engine(OracleConfig(executor="serial"))
        try:
            assert isinstance(engine, ServingBackend)
            ensure_serving_backend(engine)  # must not raise
            assert engine.weights_epoch == 0
        finally:
            engine.close()

    def test_inline_shard_router_satisfies_protocol(self, grid6_negative):
        g, tree = grid6_negative
        with ShardRouter(g, tree, k=2, backend="inline") as router:
            assert isinstance(router, ServingBackend)
            ensure_serving_backend(router)
            assert router.weights_epoch == 0

    def test_ensure_names_every_missing_member(self):
        class Nearly:
            """Has the easy half of the surface, misses the rest."""

            def submit(self, sources):  # pragma: no cover - never called
                raise NotImplementedError

            def stats(self):  # pragma: no cover - never called
                return {}

            def close(self):  # pragma: no cover - never called
                pass

        with pytest.raises(TypeError) as err:
            ensure_serving_backend(Nearly(), context="engine_factory result")
        msg = str(err.value)
        assert "engine_factory result" in msg and "Nearly" in msg
        for missing in ("query", "reweight", "weights_epoch"):
            assert missing in msg
        for present in ("'submit'", "'stats'", "'close'"):
            assert present not in msg.split("required")[0]

    def test_ensure_passes_structural_fake(self):
        class Fake:
            weights_epoch = 0

            def submit(self, sources):  # pragma: no cover - never called
                raise NotImplementedError

            def query(self, sources):  # pragma: no cover - never called
                raise NotImplementedError

            def stats(self):  # pragma: no cover - never called
                return {}

            def reweight(self, *a, **kw):  # pragma: no cover - never called
                raise NotImplementedError

            def close(self):  # pragma: no cover - never called
                pass

        ensure_serving_backend(Fake())
        assert isinstance(Fake(), ServingBackend)


class TestUnifiedStatsSchema:
    def test_serving_stats_builds_the_canonical_dict(self):
        s = serving_stats(
            backend="x", workers=1, queue_depth=0, weights_epoch=2,
            queries_served=3, rows_served=4,
        )
        assert set(s) == set(SERVING_STATS_KEYS)
        assert s["queue_wait_ms"] == {"p50": 0.0, "p99": 0.0}
        assert s["per_shard"] == []

    def test_query_engine_stats_carry_canonical_keys(self, oracle):
        engine = oracle.query_engine(OracleConfig(executor="serial"))
        try:
            engine.submit(np.array([0, 1], dtype=np.int64))
            s = engine.stats()
        finally:
            engine.close()
        for key in SERVING_STATS_KEYS:
            assert key in s, key
        assert s["backend"] == "serial"
        assert s["rows_served"] == 2
        # deprecated aliases survive for old dashboards
        assert s["engine"] == engine.engine
        assert "phases" in s and "row_cache" in s

    def test_inline_router_stats_carry_canonical_keys(self, grid6_negative):
        g, tree = grid6_negative
        with ShardRouter(g, tree, k=2, backend="inline") as router:
            router.query([0, 5])
            s = router.stats()
        for key in SERVING_STATS_KEYS:
            assert key in s, key
        assert s["backend"] == "inline"
        assert s["engine"] == "sharded"  # deprecated alias
        assert len(s["per_shard"]) == 2
        assert s["rows_served"] == 2


class TestReplicaConfig:
    def test_field_validation(self):
        with pytest.raises(ValueError, match="replicas"):
            OracleConfig(replicas=0)
        with pytest.raises(ValueError, match="max_replicas"):
            OracleConfig(max_replicas=-1)
        with pytest.raises(ValueError, match="max_replicas"):
            OracleConfig(replicas=2, max_replicas=1)
        with pytest.raises(ValueError, match="autoscale_target_p99_ms"):
            OracleConfig(autoscale_target_p99_ms=-0.5)
        with pytest.raises(ValueError, match="admission_queue_limit"):
            OracleConfig(admission_queue_limit=-1)

    def test_resolved_max_replicas(self):
        assert OracleConfig(replicas=3).resolved_max_replicas == 3
        assert (
            OracleConfig(replicas=3, autoscale_target_p99_ms=5.0).resolved_max_replicas
            == 6
        )
        assert OracleConfig(replicas=2, max_replicas=5).resolved_max_replicas == 5

    def test_inline_router_rejects_replication(self, grid6_negative):
        g, tree = grid6_negative
        with pytest.raises(ValueError, match="process"):
            ShardRouter(g, tree, OracleConfig(replicas=2), k=2, backend="inline")
        with pytest.raises(ValueError, match="process"):
            ShardRouter(
                g, tree, OracleConfig(autoscale_target_p99_ms=10.0),
                k=2, backend="inline",
            )


class TestCliConfigMapping:
    def test_every_flag_maps_onto_a_documented_field(self):
        docs = OracleConfig.field_docs()
        names = {f for f in OracleConfig.__dataclass_fields__}
        for dest, field in _CONFIG_FLAG_FIELDS.items():
            assert field in names, f"--{dest} maps to unknown field {field!r}"
            assert docs.get(field), f"field {field!r} has no Attributes doc"

    def test_config_from_args_maps_set_flags_only(self):
        ns = argparse.Namespace(**{dest: None for dest in _CONFIG_FLAG_FIELDS})
        ns.shards = 2
        ns.replicas = 3
        ns.autoscale_p99_ms = 12.5
        ns.admission_queue_limit = 9
        ns.backend = "shm"
        ns.row_cache = 64
        cfg = config_from_args(ns)
        assert cfg.shards == 2
        assert cfg.replicas == 3
        assert cfg.autoscale_target_p99_ms == 12.5
        assert cfg.admission_queue_limit == 9
        assert cfg.executor == "shm"
        assert cfg.row_cache == 64
        # unset flags keep the dataclass defaults
        default = OracleConfig()
        assert cfg.method == default.method
        assert cfg.max_replicas == default.max_replicas

    def test_config_from_args_tolerates_missing_dests(self):
        """A subcommand that defines only a subset of the flags still maps
        cleanly (absent attributes are simply not set)."""
        cfg = config_from_args(argparse.Namespace(replicas=2))
        assert cfg.replicas == 2
        assert cfg.shards == OracleConfig().shards
