"""Separator-sharded oracle fleet (the step from "an oracle" to "a fleet").

The separator decomposition is a ready-made *sharding plan*: cutting the
tree at a frontier of K nodes yields K shard subtrees whose only interface
to the rest of the graph is their boundary ``B(t)`` (Proposition 2.1 ii),
and §3's boundary cliques carry exact distances across that interface
(Theorem 3.1).  This package turns that observation into a serving tier:

* :mod:`~repro.shard.partition` — derive a :class:`~repro.shard.partition.
  ShardPlan` from a :class:`~repro.core.septree.SeparatorTree`: the vertex →
  shard map, per-shard boundaries, and the *spine* (the union of shard
  boundaries, connected by exact-distance clique edges);
* :mod:`~repro.shard.engine` — one warm per-shard engine (build + serve a
  shard subgraph through the ordinary oracle pipeline, per-shard cache
  entries included);
* :mod:`~repro.shard.spine` — the tiny spine graph and its seeded
  Bellman–Ford (Theorem 3.1 keeps this a handful of phases);
* :mod:`~repro.shard.router` — three-leg query answering (source shard →
  boundary rows → spine relaxation → target shards), drop-in compatible
  with :class:`~repro.core.query.QueryEngine`'s ``submit/query/stats/close``
  protocol so the coalescing :class:`~repro.server.OracleServer` can serve
  a fleet unchanged;
* :mod:`~repro.shard.worker` — one shard worker process owning its own
  :class:`~repro.pram.shm.ShmArena`, optionally pinned with
  ``os.sched_setaffinity`` (NUMA-aware placement: a worker's distance rows
  live in pages it touched first);
* :mod:`~repro.shard.replica` — the one supervisor of those workers
  (:class:`~repro.shard.replica.ReplicaPool`): N workers per shard (one by
  default) behind least-loaded chunked dispatch, health checks and warm
  restart-on-crash, queue-wait-p99 autoscale (warm spawn via the
  augmentation cache, drain-retire), and crash-safe reweight broadcast to
  every replica.

Entry point: :meth:`repro.core.api.ShortestPathOracle.shard_fleet` (or
``repro-spsp serve --shards K --replicas N [--pin] [--autoscale]``).
"""

from .partition import Shard, ShardPlan, extract_subtree, make_shard_plan
from .replica import ReplicaPool
from .router import ShardRouter

__all__ = [
    "ReplicaPool",
    "Shard",
    "ShardPlan",
    "ShardRouter",
    "extract_subtree",
    "make_shard_plan",
]
