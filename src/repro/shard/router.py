"""Three-leg query routing across a shard fleet: :class:`ShardRouter`.

A batch of sources is answered in three legs:

1. **source shard** — each source's *home* shard relaxes its full local
   distance row ``d_{G(t)}(v, ·)`` (one ordinary §3.2 pass on the shard's
   own augmentation);
2. **spine** — the home-shard rows at the shard's boundary columns seed a
   Bellman–Ford over the boundary-clique spine graph
   (:class:`~repro.shard.spine.SpineSolver`), whose fixpoint is the exact
   global distance to *every* spine vertex;
3. **target shards** — for each shard ``T``, interior columns are composed
   as ``⊕_{b ∈ B(T)} σ(b) ⊗ d_{G(T)}(b, ·)`` from the precomputed
   boundary-row matrices; a source's home-shard columns additionally ⊕ its
   own leg-1 row (paths that never leave the shard).

Every leg evaluates the same min-plus sums an un-sharded engine would, so
the result is the exact distance matrix — bit-identical to the single
oracle whenever the weights make float arithmetic exact (integers and
dyadics; see DESIGN.md §8 for why general floats agree to allclose but not
necessarily to the bit).

The router implements the :class:`~repro.core.query.QueryEngine` serving
protocol (``submit`` / ``query`` / ``stats`` / ``close``, thread-safe), so
the coalescing :class:`~repro.server.OracleServer` can serve a fleet by
swapping its engine factory and nothing else.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Any

import numpy as np

from ..core.config import OracleConfig
from ..core.sssp import _as_source_array
from .partition import ShardPlan, make_shard_plan
from .spine import SpineSolver

__all__ = ["ShardRouter"]

_log = logging.getLogger(__name__)

_BACKENDS = ("inline", "process")


class ShardRouter:
    """Queries over a separator-sharded fleet, one oracle's worth at a time.

    Parameters
    ----------
    graph, tree:
        The full graph and its separator decomposition.
    config:
        Fleet :class:`~repro.core.config.OracleConfig` (shard build knobs
        plus ``shards`` / ``shard_backend`` / ``shard_pin``); explicit
        keyword arguments below override the config fields.
    k:
        Target shard count (the tree may yield fewer on tiny graphs).
    backend:
        ``"inline"`` (K warm engines in this process — zero IPC) or
        ``"process"`` (worker processes, each owning its own shm arena,
        supervised by a :class:`~repro.shard.replica.ReplicaPool`).
    pin:
        Pin each worker process to one CPU (process backend only).
    replicas:
        Worker replicas per shard (process backend only; default 1, one
        worker per shard).  ``> 1`` — or an ``autoscale_target_p99_ms`` in
        the config — adds capacity behind the pool's least-loaded chunked
        dispatch.
    """

    def __init__(
        self,
        graph,
        tree,
        config: OracleConfig | None = None,
        *,
        k: int | None = None,
        backend: str | None = None,
        pin: bool | None = None,
        replicas: int | None = None,
    ) -> None:
        cfg = config if config is not None else OracleConfig()
        k = int(k if k is not None else (cfg.shards or 2))
        backend = backend if backend is not None else cfg.shard_backend
        pin = bool(cfg.shard_pin if pin is None else pin)
        replicas = int(replicas if replicas is not None else cfg.replicas)
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        replicated = replicas > 1 or cfg.autoscale_target_p99_ms > 0
        if replicated and backend != "process":
            raise ValueError(
                "replicas > 1 (or autoscale) requires the 'process' backend: "
                "inline engines share one address space, so replication "
                f"cannot add capacity there (got backend={backend!r}, "
                f"replicas={replicas})"
            )
        self.config = cfg.replace(
            shards=k, shard_backend=backend, shard_pin=pin, replicas=replicas
        )
        self.backend = backend
        self.semiring = cfg.resolved_semiring
        self.plan: ShardPlan = make_shard_plan(graph, tree, k)
        self.graph = graph
        self._lock = threading.Lock()
        self._closed = False
        self.queries_served = 0
        self.rows_served = 0
        self.weights_epoch = 0
        self.reweights = 0
        self._shard_edge_ids: list[np.ndarray] | None = None
        self.last_batch: dict[str, Any] | None = None
        t0 = time.perf_counter()
        _log.info(
            "shard router: plan k=%d spine=%d backend=%s pin=%s fingerprint=%s",
            self.plan.k, self.plan.spine.shape[0], backend, pin,
            self.plan.fingerprint()[:16],
        )
        if backend == "process":
            from .replica import ReplicaPool

            self._fleet = ReplicaPool(self.plan, self.config, pin=pin)
            self._engines = None
            self._fleet.start()
            boundary_rows = self._fleet.boundary_matrices()
        else:
            from .engine import ShardEngine

            self._fleet = None
            self._engines = [
                ShardEngine(s.id, s.graph, s.tree, s.boundary_local, self.config)
                for s in self.plan.shards
            ]
            boundary_rows = [e.boundary_matrix() for e in self._engines]
        self.spine = SpineSolver(
            self.plan, boundary_rows, self.semiring, kernel=self.config.kernel
        )
        # Leg 3 operand per shard: boundary rows restricted to the shard's
        # interior columns (spine columns are answered by σ directly).
        self._interior_rows = [
            np.ascontiguousarray(rows[:, shard.interior_local])
            for shard, rows in zip(self.plan.shards, boundary_rows)
        ]
        self.build_s = time.perf_counter() - t0
        _log.info(
            "shard router: fleet up in %.3fs (spine edges=%d)",
            self.build_s, self.spine.m,
        )

    # -------------------------------------------------------------- #

    def _leg1(self, groups: list[tuple[int, np.ndarray, np.ndarray]]):
        """Home-shard distance rows per source group: ``{shard_id: (s_i,
        n_i)}`` (fanned out to worker processes, or run on the inline
        engines).  Every reply is pinned to the router's current weights
        epoch, so a batch never mixes legs from two epochs — a worker that
        answers from the wrong epoch is restarted (landing on the agreed
        weights) and re-asked once, then it is an error."""
        if self._fleet is not None:
            return self._fleet.query_rows_many(
                [(sid, local) for sid, _, local in groups],
                expected_epoch=self.weights_epoch,
            )
        out = {}
        for sid, _, local in groups:
            eng = self._engines[sid]
            if eng.weights_epoch != self.weights_epoch:
                raise RuntimeError(
                    f"shard {sid} at weights epoch {eng.weights_epoch}, "
                    f"router at {self.weights_epoch}"
                )
            out[sid] = eng.query_rows(local)
        return out

    def _shard_edge_id_table(self) -> list[np.ndarray]:
        """Per-shard sorted global edge ids kept by the shard's induced
        subgraph, in the shard's local edge order.  Depends only on the
        unweighted skeleton, so it is computed once and reused by every
        reweight (both for slicing local weight vectors out of the full
        one and for mapping global dirty ids to shard-local ids)."""
        if self._shard_edge_ids is None:
            self._shard_edge_ids = [
                np.nonzero(self.graph.edge_membership(shard.vertices))[0]
                for shard in self.plan.shards
            ]
        return self._shard_edge_ids

    def reweight(self, weight: np.ndarray, *, dirty=None) -> dict[str, Any]:
        """Hot-swap the whole fleet to a new full-graph weight vector.

        The separator skeleton — shard plan, spine topology, every shard's
        E⁺ structure — is weight-invariant, so only weights move: each
        shard replays its retained provenance
        (:meth:`~repro.core.api.ShortestPathOracle.with_new_weights`),
        boundary-row matrices are re-fetched, and the spine's clique edges
        are re-weighted from them.  ``dirty`` optionally names the global
        edge ids that changed; they are mapped to shard-local ids so each
        shard can take the sparse replay path.

        Runs under the router lock: in-flight batches finish on the old
        epoch before the flip, and every submit after the flip is answered
        entirely at the new one (the per-leg epoch guard enforces this
        even across worker crashes and respawns).
        """
        with self._lock:
            if self._closed:
                raise ValueError("router is closed")
            t0 = time.perf_counter()
            weight = np.asarray(weight, dtype=self.graph.weight.dtype)
            if weight.shape != (self.graph.m,):
                raise ValueError(
                    f"weight must have shape ({self.graph.m},), got {weight.shape}"
                )
            epoch = self.weights_epoch + 1
            edge_ids = self._shard_edge_id_table()
            shard_weights = [weight[ids] for ids in edge_ids]
            dirty_local: list[np.ndarray | None] | None = None
            if dirty is not None:
                dirty = np.unique(np.asarray(dirty, dtype=np.int64))
                dirty_local = []
                for ids in edge_ids:
                    pos = np.searchsorted(ids, dirty)
                    hit = pos < ids.shape[0]
                    hit[hit] = ids[pos[hit]] == dirty[hit]
                    dirty_local.append(pos[hit])
            if self._fleet is not None:
                self._fleet.reweight(shard_weights, epoch, dirty=dirty_local)
                boundary_rows = self._fleet.boundary_matrices(expected_epoch=epoch)
            else:
                for i, e in enumerate(self._engines):
                    e.reweight(
                        shard_weights[i], epoch,
                        dirty_local[i] if dirty_local is not None else None,
                    )
                boundary_rows = [e.boundary_matrix() for e in self._engines]
            self.spine = SpineSolver(
                self.plan, boundary_rows, self.semiring, kernel=self.config.kernel
            )
            self._interior_rows = [
                np.ascontiguousarray(rows[:, shard.interior_local])
                for shard, rows in zip(self.plan.shards, boundary_rows)
            ]
            self.graph = type(self.graph)(
                self.graph.n, self.graph.src, self.graph.dst, weight
            )
            self.weights_epoch = epoch
            self.reweights += 1
            wall = time.perf_counter() - t0
            _log.info(
                "shard router: reweighted fleet to epoch %d in %.3fs (%s)",
                epoch, wall,
                "sparse" if dirty is not None else "dense",
            )
            return {"weights_epoch": epoch, "wall_s": wall}

    def submit(self, sources) -> tuple[np.ndarray, dict[str, Any]]:
        """Batch submission: ``(distances, info)`` exactly like
        :meth:`QueryEngine.submit`, with ``info["shards"]`` reporting the
        fleet fan-out of this batch.  Thread-safe."""
        srcs, single = _as_source_array(sources)
        sr = self.semiring
        n = self.graph.n
        s = srcs.shape[0]
        plan = self.plan
        with self._lock:
            if self._closed:
                raise ValueError("router is closed")
            t0 = time.perf_counter()
            homes = plan.home[srcs]
            groups = []
            for sid in np.unique(homes):
                rows_i = np.nonzero(homes == sid)[0]
                local = plan.shards[sid].to_local(srcs[rows_i])
                groups.append((int(sid), rows_i, local))
            local_rows = self._leg1(groups)
            out = np.full((s, n), sr.zero, dtype=sr.dtype)
            n_spine = plan.spine.shape[0]
            seeds = np.full((s, n_spine), sr.zero, dtype=sr.dtype)
            for sid, rows_i, _ in groups:
                shard = plan.shards[sid]
                if shard.boundary.size:
                    seeds[np.ix_(rows_i, plan.spine_index[shard.boundary])] = (
                        local_rows[sid][:, shard.boundary_local]
                    )
            self.spine.solve(seeds)
            if n_spine:
                out[:, plan.spine] = seeds
            for shard in plan.shards:
                if shard.interior.size == 0:
                    continue
                acc = np.full((s, shard.interior.shape[0]), sr.zero, dtype=sr.dtype)
                if shard.boundary.size:
                    sigma_b = seeds[:, plan.spine_index[shard.boundary]]
                    d_int = self._interior_rows[shard.id]
                    for j in range(d_int.shape[0]):
                        acc = sr.add(acc, sr.mul(sigma_b[:, j : j + 1], d_int[j][None, :]))
                for sid, rows_i, _ in groups:
                    if sid == shard.id:
                        acc[rows_i] = sr.add(
                            acc[rows_i], local_rows[sid][:, shard.interior_local]
                        )
                out[:, shard.interior] = acc
            info = {
                "rows": int(s),
                "shards": len(groups),
                "wall_s": time.perf_counter() - t0,
                "cached_rows": 0,
                "spine_phases": self.spine.phases_last,
                "weights_epoch": self.weights_epoch,
            }
            self.queries_served += 1
            self.rows_served += s
            self.last_batch = info
        return (out[0] if single else out), info

    def query(self, sources) -> np.ndarray:
        """Distance rows for each source: ``(s, n)``, or ``(n,)`` for a
        bare int — the three-leg composition of the module docstring."""
        return self.submit(sources)[0]

    def stats(self) -> dict[str, Any]:
        """Fleet telemetry on the canonical serving-stats schema
        (:data:`~repro.core.protocols.SERVING_STATS_KEYS`): plan shape,
        spine, and the per-shard breakdown under ``per_shard`` (engine
        counters inline; the pool's replica groups on the process
        backend)."""
        from ..core.protocols import serving_stats

        with self._lock:
            snap = {
                "queries_served": self.queries_served,
                "rows_served": self.rows_served,
                "weights_epoch": self.weights_epoch,
                "reweights": self.reweights,
                "build_s": self.build_s,
                "last_batch": None if self.last_batch is None else dict(self.last_batch),
            }
        if self._fleet is None:
            per_shard = [e.stats() for e in self._engines]
            workers, queue_depth, queue_wait, extra = self.plan.k, 0, None, {}
        else:
            fs = self._fleet.stats()
            per_shard = fs["per_shard"]
            workers = fs["workers"]
            queue_depth = fs["queue_depth"]
            queue_wait = fs["queue_wait_ms"]
            extra = {
                key: fs[key]
                for key in (
                    "base_replicas", "max_replicas",
                    "autoscale_target_p99_ms", "scale_ups",
                    "scale_downs", "restarts_total",
                )
            }
        base = serving_stats(
            backend=self.backend,
            workers=workers,
            queue_depth=queue_depth,
            queue_wait_ms=queue_wait,
            weights_epoch=snap["weights_epoch"],
            queries_served=snap["queries_served"],
            rows_served=snap["rows_served"],
            per_shard=per_shard,
        )
        base.update(snap)
        base.update(
            engine="sharded",
            plan=self.plan.stats(),
            spine=self.spine.stats(),
            **extra,
        )
        return base

    def health_check(self) -> dict[str, Any]:
        """Ping every worker, restarting dead ones (process backend); the
        inline backend is trivially healthy."""
        if self._fleet is not None:
            return self._fleet.health_check()
        return {"backend": "inline", "alive": self.plan.k}

    def close(self) -> None:
        """Drain the fleet: close every shard engine / worker and release
        their arenas (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._fleet is not None:
            self._fleet.close()
        else:
            for e in self._engines:
                e.close()
        _log.info("shard router: closed (served %d batches)", self.queries_served)

    def __enter__(self) -> "ShardRouter":
        """Context-manager entry: the router itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: close the fleet."""
        self.close()
