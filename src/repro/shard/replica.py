"""Shard worker supervision: :class:`ReplicaPool`.

The pool is the one supervisor of process-backed shards: every
``backend="process"`` :class:`~repro.shard.router.ShardRouter` runs over
it, ``replicas=1`` (one worker per shard) included.  Its jobs:

* **spawn** — all workers start concurrently, so the fleet's build time
  is the *slowest shard*, not the sum; with ``pin=True`` workers are
  assigned CPUs round-robin over this process's affinity mask before they
  build, so first-touch places each shard's pages on its CPU's NUMA node.
* **supervision** — a worker that dies (crash op, OOM kill, bug) is
  detected on the next call or ping; its shm segments are swept and it is
  respawned warm (a cache *load* whenever the augmentation store has the
  shard).  A request lost to a crash, or answered from the wrong weights
  epoch, is resent exactly once (:meth:`ReplicaPool._round_trip`).
* **replication + least-loaded dispatch** — each shard is served by N
  interchangeable worker replicas built from the *same* shard payload
  (identical augmentation → identical rows, so replication cannot change
  results).  A shard's row group is split into chunks of at most
  :attr:`~ReplicaPool.dispatch_rows` rows, and every chunk goes to the
  replica with the fewest supervisor-side in-flight requests
  (:attr:`~repro.shard.worker.WorkerHandle.inflight`) at send time.  One
  hot shard — a skewed source distribution parking 90% of a batch on one
  home shard — then no longer caps throughput at one worker's rate.
* **autoscale** — the supervisor measures per-chunk *queue wait* (round
  trip minus the worker-reported compute wall) and, when the recent p99
  exceeds ``autoscale_target_p99_ms``, spawns one more replica for the
  hottest shard.  The spawn is asynchronous: the newcomer warms in the
  background and is promoted into the dispatch set only once ready, so
  scaling never stalls serving.  When the p99 falls far below target, one
  idle replica above the configured base is drain-retired.
* **epoch-guarded reweight broadcast** — a reweight stamps the new weights
  into *every* replica's respawn payload before any request goes out
  (crash-mid-broadcast safe), kills warming replicas (they are building
  at the old weights), then broadcasts send-all-then-collect and verifies
  every survivor reached the agreed epoch.
* **drain** — :meth:`~ReplicaPool.close` asks each worker to close its
  engine and arena, reaps the process, and sweeps anything a
  non-compliant worker left in ``/dev/shm``.

The pool is a declared implementation of
:class:`~repro.core.protocols.ServingBackend` (``submit``/``query`` over
``(shard_id, local_sources)`` requests).
"""

from __future__ import annotations

import logging
import os
import time
from collections import deque
from typing import Any

import numpy as np

from ..core.config import OracleConfig
from ..core.protocols import serving_stats
from .engine import shard_build_config
from .partition import ShardPlan
from .worker import WorkerCrash, WorkerHandle

__all__ = ["ReplicaPool"]

_log = logging.getLogger(__name__)

#: Rows per dispatch chunk.  Chunking is what makes replication useful:
#: one 64-row group split into 4 chunks can run on 4 replicas at once, and
#: the per-chunk queue wait is the autoscaler's load signal.
DEFAULT_DISPATCH_ROWS = 16

#: Seconds between autoscale decisions (one spawn/retire per window keeps
#: the loop from flapping while a fresh replica is still warming).
DEFAULT_COOLDOWN_S = 2.0


class _WaitWindow:
    """Recent queue-wait samples (ms) with cheap percentiles — the
    autoscaler's sliding measurement window."""

    def __init__(self, cap: int = 512) -> None:
        self._samples: deque[float] = deque(maxlen=cap)

    def record(self, wait_ms: float) -> None:
        self._samples.append(float(wait_ms))

    def clear(self) -> None:
        self._samples.clear()

    def __len__(self) -> int:
        return len(self._samples)

    def percentile(self, q: float) -> float:
        if not self._samples:
            return 0.0
        data = sorted(self._samples)
        idx = min(len(data) - 1, int(q * len(data)))
        return data[idx]

    def summary(self) -> dict[str, float]:
        return {"p50": self.percentile(0.50), "p99": self.percentile(0.99)}


class ReplicaPool:
    """N supervised worker replicas per shard with least-loaded dispatch.

    Parameters
    ----------
    plan:
        The shard plan to serve.
    config:
        Fleet :class:`~repro.core.config.OracleConfig`.  ``replicas`` is
        the per-shard base (and floor), ``resolved_max_replicas`` the
        per-shard cap, ``autoscale_target_p99_ms`` the queue-wait target
        (0 disables the autoscaler).
    pin:
        Pin each worker to one CPU (round-robin over the supervisor's
        affinity mask, continuing across replicas).
    log_level:
        Worker-process log level.
    """

    def __init__(
        self,
        plan: ShardPlan,
        config: OracleConfig | None = None,
        *,
        pin: bool = False,
        log_level: int | None = None,
    ) -> None:
        self.plan = plan
        self.config = shard_build_config(config)
        self.pin = bool(pin)
        self.base_replicas = max(1, int(self.config.replicas))
        self.max_replicas = max(
            self.base_replicas, int(self.config.resolved_max_replicas)
        )
        self.autoscale_target_p99_ms = float(self.config.autoscale_target_p99_ms)
        self.dispatch_rows = DEFAULT_DISPATCH_ROWS
        self.cooldown_s = DEFAULT_COOLDOWN_S
        if log_level is None:
            log_level = logging.getLogger("repro").getEffectiveLevel()
        self._log_level = log_level
        self._cpus = self._affinity_cpus() if self.pin else []
        self._next_cpu = 0
        #: Active (ready, dispatchable) replicas per shard.
        self.replicas: list[list[WorkerHandle]] = [[] for _ in plan.shards]
        #: Spawned-but-not-ready replicas per shard (promoted by
        #: :meth:`_promote_warming`, killed by :meth:`reweight`).
        self.warming: list[list[WorkerHandle]] = [[] for _ in plan.shards]
        #: Current per-shard local weight vectors + fleet epoch, so a
        #: replica spawned *after* a reweight is built at the weights the
        #: pool currently serves, never the plan's originals.
        self._shard_weights: list[np.ndarray | None] = [None] * plan.k
        self._epoch = 0
        self._started = False
        self._closed = False
        self._next_replica_id = [0] * plan.k
        self._wait = _WaitWindow()
        self._shard_wait = [_WaitWindow() for _ in plan.shards]
        self._last_scale = -float("inf")
        self.queries_served = 0
        self.rows_served = 0
        self.restarts_total = 0
        self.scale_ups = 0
        self.scale_downs = 0

    @staticmethod
    def _affinity_cpus() -> list[int]:
        if hasattr(os, "sched_getaffinity"):
            return sorted(os.sched_getaffinity(0))
        return list(range(os.cpu_count() or 1))  # pragma: no cover - non-Linux

    @property
    def k(self) -> int:
        """Number of shards served."""
        return self.plan.k

    @property
    def weights_epoch(self) -> int:
        """The weights epoch every active replica serves."""
        return self._epoch

    # ------------------------------------------------------------------ #
    # replica lifecycle

    def _new_handle(self, sid: int) -> WorkerHandle:
        shard = self.plan.shards[sid]
        pin_cpu = None
        if self._cpus:
            pin_cpu = self._cpus[self._next_cpu % len(self._cpus)]
            self._next_cpu += 1
        h = WorkerHandle(
            shard.id,
            shard.graph,
            shard.tree,
            shard.boundary_local,
            self.config,
            pin_cpu=pin_cpu,
            log_level=self._log_level,
            replica=self._next_replica_id[sid],
        )
        self._next_replica_id[sid] += 1
        if self._shard_weights[sid] is not None:
            h.set_weights(self._shard_weights[sid], self._epoch)
        return h

    def start(self) -> None:
        """Spawn ``base_replicas`` workers per shard concurrently, then
        wait for every build (cache-warm whenever the store has the
        shard's augmentation)."""
        if self._started:
            return
        t0 = time.perf_counter()
        for sid in range(self.plan.k):
            for _ in range(self.base_replicas):
                h = self._new_handle(sid)
                h.spawn()
                self.replicas[sid].append(h)
        for sid, group in enumerate(self.replicas):
            for h in group:
                info = h.wait_ready()
                _log.info(
                    "shard %d replica %d: worker %d ready in %.3fs (cache %s)",
                    sid, h.replica, info["pid"], info["build_s"],
                    info["cache_status"],
                )
        self._started = True
        _log.info(
            "replica pool: %d shards x %d replicas up in %.3fs",
            self.plan.k, self.base_replicas, time.perf_counter() - t0,
        )

    def _restart(self, h: WorkerHandle) -> None:
        """Respawn one replica in place: reap, sweep its shm, warm-spawn
        (the respawn payload already carries the pool's current weights)."""
        _log.warning(
            "shard %d replica %d: restarting worker %s (restart #%d)",
            h.shard_id, h.replica, h.pid, h.restarts + 1,
        )
        h.kill()
        h.clean_stale_segments()
        h.spawn()
        h.wait_ready()
        h.restarts += 1
        self.restarts_total += 1

    def _round_trip(
        self,
        h: WorkerHandle,
        op: str,
        arg: Any = None,
        *,
        expected_epoch: int | None = None,
        pending: bool = False,
    ) -> Any:
        """One request/reply with ``h`` under the pool's two supervision
        rules.  A crash costs one warm restart and one resend.  A reply
        computed at any weights epoch other than ``expected_epoch`` costs
        one restart (the respawn payload carries the agreed weights and
        epoch) and one resend; a second disagreement is an error, never a
        silently mixed batch.  ``pending=True`` collects the reply to a
        request already sent instead of sending one."""
        try:
            payload = h.recv_response() if pending else h.call(op, arg)
        except WorkerCrash as exc:
            _log.warning("shard %d replica %d: %s", h.shard_id, h.replica, exc)
            self._restart(h)
            payload = h.call(op, arg)
        if expected_epoch is None or (
            int(payload.get("epoch", expected_epoch)) == int(expected_epoch)
        ):
            return payload
        _log.warning(
            "shard %d replica %d: answered from weights epoch %s, "
            "expected %d; restarting",
            h.shard_id, h.replica, payload.get("epoch"), expected_epoch,
        )
        self._restart(h)
        payload = h.call(op, arg)
        if int(payload.get("epoch", -1)) != int(expected_epoch):
            raise RuntimeError(
                f"shard {h.shard_id} replica {h.replica} still at weights "
                f"epoch {payload.get('epoch')} != {expected_epoch} after restart"
            )
        return payload

    def spawn_replica(self, sid: int) -> WorkerHandle:
        """Start one additional replica for ``sid`` in the background; it
        serves only after :meth:`_promote_warming` sees it ready."""
        h = self._new_handle(sid)
        h.spawn()
        self.warming[sid].append(h)
        _log.info(
            "shard %d: warming replica %d (worker %d)", sid, h.replica, h.pid
        )
        return h

    def _promote_warming(self) -> int:
        """Move every warmed-up replica into the dispatch set (non-
        blocking); a replica that died warming is discarded."""
        promoted = 0
        for sid, group in enumerate(self.warming):
            still = []
            for h in group:
                try:
                    info = h.poll_ready()
                except WorkerCrash:
                    _log.warning(
                        "shard %d: replica %d died warming; discarded",
                        sid, h.replica,
                    )
                    h.kill()
                    h.clean_stale_segments()
                    continue
                if info is None:
                    still.append(h)
                else:
                    self.replicas[sid].append(h)
                    promoted += 1
                    _log.info(
                        "shard %d: replica %d promoted (cache %s)",
                        sid, h.replica, info["cache_status"],
                    )
            self.warming[sid] = still
        return promoted

    def retire_replica(self, sid: int, *, handle: WorkerHandle | None = None) -> int:
        """Drain-retire one replica of ``sid``: it leaves the dispatch set
        first (no new chunks), then drains and closes — in-flight work, if
        any, completes inside :meth:`WorkerHandle.close`'s graceful path.
        Returns the retired worker's pid.  Refuses to drop the last
        replica of a shard."""
        group = self.replicas[sid]
        if len(group) <= 1:
            raise ValueError(f"shard {sid} has only one replica; cannot retire")
        if handle is None:
            # Prefer an idle replica; fall back to the least-loaded one.
            handle = min(group[1:], key=lambda h: h.inflight)
        group.remove(handle)
        pid = handle.pid
        # Out of the dispatch set, no new chunks arrive; wait for already-
        # sent ones to be collected so close()'s ack cannot interleave with
        # a pending query reply on the same pipe (FIFO per connection).
        deadline = time.monotonic() + 60.0
        while handle.inflight > 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        handle.close()
        _log.info("shard %d: replica %d (worker %s) retired", sid, handle.replica, pid)
        return int(pid)

    # ------------------------------------------------------------------ #
    # dispatch

    def _chunks(self, local: np.ndarray) -> list[np.ndarray]:
        step = max(1, int(self.dispatch_rows))
        return [local[i : i + step] for i in range(0, local.shape[0], step)]

    def _send(self, h: WorkerHandle, op: str, arg: Any = None) -> bool:
        """Send one request without waiting; returns whether it is pending.
        A send to a dead worker returns ``False``, and the request's
        :meth:`_round_trip` then restarts the worker and resends."""
        try:
            h.send_request(op, arg)
            return True
        except WorkerCrash as exc:
            _log.warning("shard %d replica %d: %s", h.shard_id, h.replica, exc)
            return False

    def _collect_chunk(
        self,
        sid: int,
        h: WorkerHandle,
        chunk: np.ndarray,
        pending: bool,
        t_send: float,
        expected_epoch: int | None,
    ) -> np.ndarray:
        """Collect one chunk's reply (FIFO per handle) under the supervision
        rules of :meth:`_round_trip`, recording the chunk's queue wait."""
        payload = self._round_trip(
            h, "query", chunk, expected_epoch=expected_epoch, pending=pending
        )
        wait_ms = max(
            0.0,
            (time.perf_counter() - t_send - float(payload.get("wall_s", 0.0)))
            * 1e3,
        )
        self._wait.record(wait_ms)
        self._shard_wait[sid].record(wait_ms)
        return h.fetch_rows(payload)

    def query_rows_many(
        self,
        requests: list[tuple[int, np.ndarray]],
        expected_epoch: int | None = None,
    ) -> dict[int, np.ndarray]:
        """Leg-1 fan-out with replication: each shard's row group is split
        into :attr:`dispatch_rows`-row chunks and the chunks are spread
        over that shard's replicas, least-loaded first, with **at most one
        outstanding chunk per replica**.  The cap is a data-integrity
        invariant, not a tuning choice: a worker reuses one arena block
        per connection, so a second chunk queued behind an uncollected
        reply could overwrite rows the supervisor has not fetched yet.
        Replies are collected in send order — each collect fetches the
        rows out of the arena immediately, frees that replica, and hands
        it the shard's next waiting chunk, so all replicas of a hot shard
        relax concurrently for the whole batch.  Results are reassembled
        in request row order; because every replica holds the identical
        augmentation, the assembled rows are bit-identical to the
        one-replica pool's.
        """
        waiting: dict[int, deque[tuple[np.ndarray, int]]] = {}
        sizes: dict[int, int] = {}
        for sid, local in requests:
            local = np.asarray(local, dtype=np.int64)
            sizes[sid] = local.shape[0]
            offset = 0
            q = waiting.setdefault(sid, deque())
            for chunk in self._chunks(local):
                q.append((chunk, offset))
                offset += chunk.shape[0]
        busy: set[WorkerHandle] = set()
        inflight: deque[tuple[int, WorkerHandle, np.ndarray, int, bool, float]] = (
            deque()
        )

        def pump(sid: int) -> None:
            q = waiting[sid]
            while q:
                idle = [h for h in self.replicas[sid] if h not in busy]
                if not idle:
                    return
                chunk, offset = q.popleft()
                h = min(idle, key=lambda c: c.inflight)
                pending = self._send(h, "query", chunk)
                busy.add(h)
                inflight.append(
                    (sid, h, chunk, offset, pending, time.perf_counter())
                )

        for sid in waiting:
            pump(sid)
        out: dict[int, np.ndarray] = {}
        while inflight:
            sid, h, chunk, offset, pending, t_send = inflight.popleft()
            rows = self._collect_chunk(
                sid, h, chunk, pending, t_send, expected_epoch
            )
            busy.discard(h)
            if sid not in out:
                out[sid] = np.empty((sizes[sid], rows.shape[1]), dtype=rows.dtype)
            out[sid][offset : offset + chunk.shape[0]] = rows
            pump(sid)
        self.queries_served += 1
        self.rows_served += sum(sizes.values())
        self._maybe_autoscale()
        return out

    def boundary_matrices(self, expected_epoch: int | None = None) -> list[np.ndarray]:
        """Every shard's boundary-row matrix ``(|B(t)|, n_t)``, id order,
        computed on replica 0 (all replicas hold the identical
        augmentation).  ``expected_epoch`` enables the epoch guard."""
        out = []
        for group in self.replicas:
            h = group[0]
            payload = self._round_trip(h, "boundary", expected_epoch=expected_epoch)
            out.append(h.fetch_rows(payload))
        return out

    # ------------------------------------------------------------------ #
    # autoscale

    def _hottest_shard(self) -> int:
        """Shard to scale next: worst recent queue-wait p99, depth as the
        tie-break."""
        return max(
            range(self.plan.k),
            key=lambda sid: (
                self._shard_wait[sid].percentile(0.99),
                sum(h.inflight for h in self.replicas[sid]),
            ),
        )

    def _maybe_autoscale(self) -> dict[str, Any] | None:
        """One autoscale decision, taken synchronously after each batch
        (no background thread: deterministic, and the measurement window
        is exactly the traffic since the last decision).  Returns the
        action taken, if any."""
        if self.autoscale_target_p99_ms <= 0:
            return None
        self._promote_warming()
        now = time.monotonic()
        if now - self._last_scale < self.cooldown_s or len(self._wait) == 0:
            return None
        p99 = self._wait.percentile(0.99)
        action: dict[str, Any] | None = None
        if p99 > self.autoscale_target_p99_ms:
            sid = self._hottest_shard()
            count = len(self.replicas[sid]) + len(self.warming[sid])
            if count < self.max_replicas:
                self.spawn_replica(sid)
                self.scale_ups += 1
                action = {"action": "scale_up", "shard": sid, "p99_ms": p99}
                _log.info(
                    "autoscale: queue-wait p99 %.1fms > %.1fms target; "
                    "scaling shard %d to %d replicas",
                    p99, self.autoscale_target_p99_ms, sid, count + 1,
                )
        elif p99 < self.autoscale_target_p99_ms / 4:
            for sid, group in enumerate(self.replicas):
                if len(group) > self.base_replicas and not self.warming[sid]:
                    idle = [h for h in group[1:] if h.inflight == 0]
                    if idle:
                        self.retire_replica(sid, handle=idle[-1])
                        self.scale_downs += 1
                        action = {
                            "action": "scale_down", "shard": sid, "p99_ms": p99,
                        }
                        break
        if action is not None:
            self._last_scale = now
            self._wait.clear()
            for w in self._shard_wait:
                w.clear()
        return action

    # ------------------------------------------------------------------ #
    # reweight

    def reweight(
        self,
        shard_weights: list[np.ndarray],
        epoch: int,
        dirty: list[np.ndarray | None] | None = None,
    ) -> list[dict[str, Any]]:
        """Broadcast a reweight to *every* replica of every shard.

        Ordering is the crash-safety invariant: (1) warming replicas are
        killed — they are mid-build at the old weights and respawning one
        later is cheaper than racing it; (2) the new weights + epoch are
        stamped into every handle's respawn payload and the pool's own
        :attr:`_shard_weights`, so any replica that crashes at any point
        from here on is rebuilt already at the new weights; (3) requests
        are all sent, then all collected (the pool's flip time is its
        slowest replica); (4) every replica must report the agreed epoch,
        under the crash and epoch rules of :meth:`_round_trip`.
        """
        epoch = int(epoch)
        for sid in range(self.plan.k):
            for h in self.warming[sid]:
                _log.info(
                    "shard %d: killing warming replica %d for reweight",
                    sid, h.replica,
                )
                h.kill()
                h.clean_stale_segments()
            self.warming[sid] = []
        for sid, w in enumerate(shard_weights):
            w = np.asarray(w)
            self._shard_weights[sid] = w
            for h in self.replicas[sid]:
                h.set_weights(w, epoch)
        self._epoch = epoch
        sent = []
        for sid, w in enumerate(shard_weights):
            arg = {
                "weight": np.asarray(w),
                "epoch": epoch,
                "dirty": None if dirty is None else dirty[sid],
            }
            for h in self.replicas[sid]:
                sent.append((h, arg, self._send(h, "reweight", arg)))
        replies = {
            (h.shard_id, h.replica): self._round_trip(
                h, "reweight", arg, expected_epoch=epoch, pending=pending
            )
            for h, arg, pending in sent
        }
        # Per-shard summaries in shard order (replica 0's reply).
        return [
            replies[(sid, group[0].replica)]
            for sid, group in enumerate(self.replicas)
        ]

    # ------------------------------------------------------------------ #
    # ServingBackend verbs

    def submit(
        self, requests: list[tuple[int, np.ndarray]]
    ) -> tuple[dict[int, np.ndarray], dict[str, Any]]:
        """Answer one batch of ``(shard_id, local_sources)`` requests;
        returns ``(rows_by_shard, info)``."""
        t0 = time.perf_counter()
        rows = self.query_rows_many(requests, expected_epoch=self._epoch)
        info = {
            "rows": int(sum(r.shape[0] for r in rows.values())),
            "shards": len(rows),
            "wall_s": time.perf_counter() - t0,
        }
        return rows, info

    def query(self, requests: list[tuple[int, np.ndarray]]) -> dict[int, np.ndarray]:
        """:meth:`submit` without the info record."""
        return self.submit(requests)[0]

    def health_check(self) -> dict[str, Any]:
        """Ping every active replica; dead ones are restarted on the spot."""
        restarted = []
        for sid, group in enumerate(self.replicas):
            for h in group:
                try:
                    h.call("ping", timeout=30.0)
                except (WorkerCrash, RuntimeError):
                    self._restart(h)
                    restarted.append((sid, h.replica))
        return {
            "backend": "replicated",
            "alive": sum(len(g) for g in self.replicas),
            "restarted": restarted,
            "restarts_total": self.restarts_total,
        }

    def stats(self) -> dict[str, Any]:
        """Canonical serving stats plus the per-shard replica breakdown.

        Per-replica engine counters come from the non-blocking
        :meth:`~repro.shard.worker.WorkerHandle.try_stats` probe — a busy
        or crashed replica is reported at its last-known counters with
        ``stale: true``, never waited on.
        """
        per_shard = []
        for sid, group in enumerate(self.replicas):
            workers = []
            for h in group:
                probed = h.try_stats()
                s = dict(probed) if probed is not None else (
                    dict(h.last_stats) if h.last_stats else {"shard": sid}
                )
                s.update(
                    stale=probed is None,
                    replica=h.replica,
                    queue_depth=h.inflight,
                    pid=h.pid,
                    restarts=h.restarts,
                    pinned_cpu=(h.ready_info or {}).get("pinned_cpu"),
                )
                workers.append(s)
            per_shard.append({
                "shard": sid,
                "replicas": len(group),
                "warming": len(self.warming[sid]),
                "queue_depth": sum(h.inflight for h in group),
                "queue_wait_ms": self._shard_wait[sid].summary(),
                "workers": workers,
            })
        base = serving_stats(
            backend="replicated",
            workers=sum(len(g) for g in self.replicas),
            queue_depth=sum(s["queue_depth"] for s in per_shard),
            queue_wait_ms=self._wait.summary(),
            weights_epoch=self._epoch,
            queries_served=self.queries_served,
            rows_served=self.rows_served,
            per_shard=per_shard,
        )
        base.update(
            base_replicas=self.base_replicas,
            max_replicas=self.max_replicas,
            autoscale_target_p99_ms=self.autoscale_target_p99_ms,
            scale_ups=self.scale_ups,
            scale_downs=self.scale_downs,
            restarts_total=self.restarts_total,
        )
        return base

    def close(self) -> None:
        """Drain the pool: every replica (warming ones included) closes its
        engine + arena and is reaped; idempotent."""
        if self._closed:
            return
        self._closed = True
        for sid in range(self.plan.k):
            for h in self.warming[sid]:
                h.kill()
                h.clean_stale_segments()
            self.warming[sid] = []
            for h in self.replicas[sid]:
                h.close()
        _log.info(
            "replica pool: drained %d workers (%d restarts, %d up / %d down)",
            sum(len(g) for g in self.replicas),
            self.restarts_total, self.scale_ups, self.scale_downs,
        )

    def __enter__(self) -> "ReplicaPool":
        """Context-manager entry: the pool itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: drain the pool."""
        self.close()
