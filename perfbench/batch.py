"""Closed-loop batch workloads: ``grid-batch`` and ``mu-fleet``.

One caller submits 64-source batches back to back (uniform sources, the
engine's row cache off) and waits for each answer before the next.  A
seeded sample of each batch's rows is compared for equality with the scipy
floor.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .harness import (
    BATCH_ROWS,
    Checker,
    Cycle,
    Floor,
    Tracer,
    floor_layers,
    integral_weights,
    median,
    mu_family,
    patched,
    process_tree_peak_mb,
    serial_replay,
)

#: Rows of each batch compared with the floor.
CHECK_ROWS = 8
#: Batches per traced cycle replayed serially for the query-layer split.
REPLAYS_PER_CYCLE = 3
#: Workers of the serving executor.
WORKERS = 2


@dataclass
class _Ctx:
    oracle: Any
    serving: Any
    replays: list[tuple[float, float, float]] = field(default_factory=list)
    spine_s: list[float] = field(default_factory=list)
    legs_s: list[float] = field(default_factory=list)
    spine_phases: list[float] = field(default_factory=list)


class BatchWorkload:
    """Shared closed loop; subclasses build the serving stack."""

    name = ""
    #: latency limit (ms) of one batch for ``ok_frac``
    limit_ms = 1000.0
    #: cycles (set-up + load) per run; traced runs make as many again,
    #: traced.  ``setup_s`` is their median, so cheap set-ups get more.
    cycles = 3

    def __init__(self, seed: int, *, smoke: bool, checker: Checker) -> None:
        self.seed = int(seed)
        self.smoke = smoke
        self.checker = checker
        self.graph, self.tree = self.generate(np.random.default_rng([self.seed, 0]))
        self.floor = Floor(self.graph.n, self.graph.src, self.graph.dst, self.graph.weight)
        self._tracer: Tracer | None = None

    # ---- subclass hooks ------------------------------------------------ #

    def generate(self, rng: np.random.Generator):
        raise NotImplementedError

    def open(self, cyc: Cycle) -> _Ctx:
        raise NotImplementedError

    def trace_targets(self) -> list[tuple[Any, str, str]]:
        raise NotImplementedError

    # ---- cycle protocol ------------------------------------------------ #

    def submit(self, ctx: _Ctx, sources: np.ndarray):
        return ctx.serving.submit(sources)

    def close_serving(self, ctx: _Ctx) -> None:
        try:
            ctx.serving.close()
        finally:
            ctx.oracle.close()

    def tracing(self, tracer: Tracer):
        self._tracer = tracer
        return patched(tracer, self.trace_targets())

    def start(self, cyc: Cycle) -> _Ctx:
        ctx = self.open(cyc)
        try:
            first = np.array([int(self.graph.n // 2)])
            rows, _ = self.submit(ctx, first)
            ok = Checker.rows_equal(rows, self.floor.rows(first))
            self.checker.record(ok=ok, wrong=not ok)
        except BaseException:
            self.close_serving(ctx)
            raise
        aug = ctx.oracle.augmentation
        sched = ctx.oracle.schedule
        cyc.counts.update({
            "separators.sep_total": float(ctx.oracle.tree.separator_sizes().sum()),
            "separators.height": float(ctx.oracle.tree.height),
            "eplus.edges": float(aug.size),
            "schedule.phases": float(sched.num_phases),
            "schedule.edge_scans": float(sched.edge_scans),
        })
        if cyc.traced:
            cyc.layers.update(cyc.counts)
            for layer, span in (
                ("separators.decompose_s", "separators.decompose"),
                ("eplus.build_s", "eplus.build"),
                ("schedule.compile_s", "schedule.compile"),
            ):
                cyc.layers[layer] = self._tracer.total(span, cyc.index)
        return ctx

    def drive(self, ctx: _Ctx, window: float, cyc: Cycle) -> None:
        rng = np.random.default_rng([self.seed, 1, cyc.index])
        n = self.graph.n
        end = time.perf_counter() + window
        while time.perf_counter() < end:
            sources = rng.integers(0, n, size=BATCH_ROWS)
            t0 = time.perf_counter()
            rows, info = self.submit(ctx, sources)
            wall = time.perf_counter() - t0
            rows = self.checker.corrupt(rows)
            pick = np.sort(rng.choice(BATCH_ROWS, size=CHECK_ROWS, replace=False))
            ok = Checker.rows_equal(rows[pick], self.floor.rows(sources[pick]))
            self.checker.record(ok=ok, wrong=not ok)
            cyc.op_latency_s.append(wall)
            cyc.rows += BATCH_ROWS
            cyc.busy_s += wall
            cyc.ops += 1
            cyc.ops_within_limit += int(ok and wall * 1e3 <= self.limit_ms)
            if cyc.traced:
                t_extra = time.perf_counter()
                self.trace_batch(ctx, sources, wall, info, cyc)
                end += time.perf_counter() - t_extra

    def trace_batch(self, ctx: _Ctx, sources, wall: float, info: dict, cyc: Cycle) -> None:
        """Serial ``PhaseSchedule.run`` replay of the same batch: the query
        layer's own wall and edge scans, free of dispatch."""
        if len(ctx.replays) >= REPLAYS_PER_CYCLE:
            return
        _, relax, scans = serial_replay(ctx.oracle, sources)
        ctx.replays.append((relax, wall, scans))

    def stop(self, ctx: _Ctx, cyc: Cycle) -> None:
        try:
            cyc.peak_rss_mb = process_tree_peak_mb(os.getpid())
            if cyc.traced:
                self.finish_layers(ctx, cyc)
        finally:
            self.close_serving(ctx)

    def finish_layers(self, ctx: _Ctx, cyc: Cycle) -> None:
        if ctx.replays:
            relax, wall, scans = (median(col) for col in zip(*ctx.replays))
            cyc.layers["query.relax_s"] = relax
            cyc.layers["query.edge_scans_per_row"] = scans
            cyc.layers["pram.parallel_eff"] = relax / (wall * WORKERS)

    def run_layers(self) -> dict[str, float]:
        """The floors on G for one 64-source batch (traced runs only)."""
        sources = np.random.default_rng([self.seed, 2]).integers(0, self.graph.n, BATCH_ROWS)
        return floor_layers(self.graph, self.floor, sources, self.checker)

    def close(self) -> None:
        """Nothing outlives a cycle."""


class GridBatch(BatchWorkload):
    """Offline multi-source analytics on the default build path: a 56×56
    bidirected grid built with every default (spectral separator,
    leaves-up E⁺, serial), served by ``query_engine(executor="shm:2")``."""

    name = "grid-batch"
    limit_ms = 1000.0

    def generate(self, rng):
        from repro.workloads.generators import grid_digraph

        side = 12 if self.smoke else 56
        return integral_weights(grid_digraph((side, side)), rng), None

    def trace_targets(self):
        import repro.core.api
        import repro.core.scheduler
        import repro.separators

        return [
            (repro.separators, "decompose", "separators.decompose"),
            (repro.core.api, "augment_leaves_up", "eplus.build"),
            (repro.core.scheduler, "build_schedule", "schedule.compile"),
        ]

    def open(self, cyc):
        from repro import ShortestPathOracle

        oracle = ShortestPathOracle.build(self.graph)
        try:
            t0 = time.perf_counter()
            engine = oracle.query_engine(executor=f"shm:{WORKERS}")
            publish_s = time.perf_counter() - t0
        except BaseException:
            oracle.close()
            raise
        if cyc.traced:
            cyc.layers["pram.publish_s"] = publish_s
            cyc.layers["pram.shared_bytes"] = float(engine.stats()["shared_bytes"])
        return _Ctx(oracle, engine)


class MuFleet(BatchWorkload):
    """Sharded batch serving: the μ=0.5 separator-programmable family
    (n=2200) with its programmed tree, served by
    ``oracle.shard_fleet(k=2, backend="process")``."""

    name = "mu-fleet"
    limit_ms = 500.0
    cycles = 5

    def generate(self, rng):
        return mu_family(rng, smoke=self.smoke)

    def trace_targets(self):
        import repro.core.api
        import repro.core.scheduler
        from repro.shard.spine import SpineSolver

        return [
            (repro.core.api, "augment_leaves_up", "eplus.build"),
            (repro.core.scheduler, "build_schedule", "schedule.compile"),
            (SpineSolver, "solve", "shard.spine"),
        ]

    def open(self, cyc):
        from repro import ShortestPathOracle

        oracle = ShortestPathOracle.build(self.graph, self.tree)
        try:
            t0 = time.perf_counter()
            router = oracle.shard_fleet(k=2, backend="process")
            start_s = time.perf_counter() - t0
        except BaseException:
            oracle.close()
            raise
        cyc.counts["shard.spine_vertices"] = float(router.plan.spine.shape[0])
        if cyc.traced:
            cyc.layers["shard.start_s"] = start_s
            cyc.layers["shard.spine_vertices"] = cyc.counts["shard.spine_vertices"]
        return _Ctx(oracle, router)

    def trace_batch(self, ctx, sources, wall, info, cyc):
        spine = self._tracer.durations("shard.spine", cyc.index)[-1]
        ctx.spine_s.append(spine)
        ctx.legs_s.append(wall - spine)
        ctx.spine_phases.append(float(info["spine_phases"]))
        super().trace_batch(ctx, sources, wall, info, cyc)

    def finish_layers(self, ctx, cyc):
        super().finish_layers(ctx, cyc)
        cyc.layers["shard.spine_s"] = median(ctx.spine_s)
        cyc.layers["shard.legs_s"] = median(ctx.legs_s)
        cyc.layers["shard.spine_phases"] = median(ctx.spine_phases)
