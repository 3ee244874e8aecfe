"""High-level facade: :class:`ShortestPathOracle`.

One object bundles the whole paper pipeline: separator decomposition (given
or computed), augmentation E⁺ (Algorithm 4.1 or 4.3), the §3.2 phase
schedule, and query methods for distances, trees, paths and reachability —
with PRAM work/depth accounting throughout.

    >>> from repro import ShortestPathOracle
    >>> from repro.workloads.generators import grid_digraph
    >>> import numpy as np
    >>> g = grid_digraph((16, 16), np.random.default_rng(0))
    >>> oracle = ShortestPathOracle.build(g, separator="auto")
    >>> d = oracle.distances([0, 5])          # (2, 256) distance matrix
    >>> tree = oracle.shortest_path_tree(0)   # parent array
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable

import numpy as np

from ..pram.executor import parse_spec
from ..pram.machine import Ledger
from .augment import Augmentation
from .config import UNSET, OracleConfig, resolve_config
from .digraph import WeightedDigraph
from .doubling import augment_doubling
from .leaves_up import augment_leaves_up
from .negcycle import has_negative_cycle
from .paths import reconstruct_path, shortest_path_tree
from .scheduler import PhaseSchedule
from .semiring import Semiring
from .septree import SeparatorTree, build_separator_tree
from .sssp import measured_diameter, sssp_naive, sssp_scheduled

__all__ = ["ShortestPathOracle"]


def _resolve_tree(
    graph: WeightedDigraph,
    tree,
    separator,
    leaf_size: int,
) -> SeparatorTree:
    if tree is not None:
        return tree
    if callable(separator):
        return build_separator_tree(graph, separator, leaf_size=leaf_size)
    from ..separators import decompose

    return decompose(graph, separator, leaf_size=leaf_size)


def _is_shm_spec(executor) -> bool:
    """Whether an executor spec names the shared-memory backend (the case
    where a cache hit warm-starts an arena for the loaded edge arrays)."""
    return isinstance(executor, str) and parse_spec(executor)[0] == "shm"


class ShortestPathOracle:
    """Preprocessed multi-source shortest-path oracle for a digraph with a
    separator decomposition (the paper's end-to-end system)."""

    def __init__(
        self,
        graph: WeightedDigraph,
        tree: SeparatorTree,
        augmentation: Augmentation,
        schedule: PhaseSchedule,
        *,
        preprocess_ledger: Ledger,
        config: OracleConfig | None = None,
    ) -> None:
        self.graph = graph
        self.tree = tree
        self.augmentation = augmentation
        self.schedule = schedule
        self.preprocess_ledger = preprocess_ledger
        self.query_ledger = Ledger()
        #: The resolved build configuration — reused by
        #: :meth:`with_new_weights` so rebuilds keep the original
        #: ``executor`` / ``kernel`` choices, and serializable for the
        #: server/CLI (``config.to_dict()``).
        self.config = config if config is not None else OracleConfig()
        #: How the augmentation cache participated in this build (see
        #: :mod:`repro.cache`): ``mode`` / ``status`` always, plus ``key``,
        #: ``dir`` and timings once the store was consulted.  Surfaced by
        #: the server's ``stats`` op as the build-cache hit record.
        self.cache_info: dict = {"mode": self.config.cache, "status": "off"}
        #: Lazily captured build provenance (:class:`~repro.core.reweight.
        #: ReweightPlan`) shared along a :meth:`with_new_weights` lineage —
        #: captured once per skeleton, reused by every incremental
        #: reweight derived from this oracle.
        self._reweight_plan = None

    # -------------------------------------------------------------- #

    @classmethod
    def build(
        cls,
        graph: WeightedDigraph,
        tree: SeparatorTree | None = None,
        *,
        config: OracleConfig | None = None,
        separator: str | Callable | None = UNSET,
        method: str = UNSET,
        semiring: Semiring = UNSET,
        leaf_size: int = UNSET,
        executor=UNSET,
        validate: bool = UNSET,
        keep_node_distances: bool = UNSET,
        kernel: str | None = UNSET,
        cache: str = UNSET,
        cache_dir: str | None = UNSET,
        mode: str = UNSET,
        eps: float = UNSET,
        hopset_beta: int = UNSET,
    ) -> "ShortestPathOracle":
        """Run the full preprocessing pipeline.

        All knobs live on one :class:`~repro.core.config.OracleConfig`
        (pass ``config=``); the individual kwargs remain as a back-compat
        overlay with their historical defaults (``method="leaves_up"``,
        ``semiring=MIN_PLUS``, ``leaf_size=8``, ``executor="serial"``,
        ``validate=False``, ``keep_node_distances=False``,
        ``kernel=None``).  A kwarg that contradicts an explicit ``config``
        emits a :class:`DeprecationWarning` and wins.

        Parameters
        ----------
        tree:
            A precomputed separator decomposition (paper comment (iv): it
            depends only on the skeleton and can be reused across weight /
            direction changes).  When omitted, ``config.separator`` selects
            an engine: ``"auto"``/``"spectral"``, ``"planar"``,
            ``"treewidth"``, or a callable oracle.
        config:
            See :class:`~repro.core.config.OracleConfig` for the full knob
            inventory (``method``, ``separator``, ``semiring``,
            ``leaf_size``, ``executor``, ``kernel``,
            ``keep_node_distances``, ``validate`` are consumed here; the
            serving fields ride along untouched for
            :meth:`query_engine`).
        cache:
            Augmentation-cache mode (see :mod:`repro.cache`): ``"off"``
            never touches the store; ``"read"`` loads a content-addressed
            hit but never writes; ``"readwrite"`` additionally persists a
            miss (under an ``O_EXCL`` build lock so concurrent builders of
            the same key produce one store entry).  A hit skips the whole
            §4 construction *and* — when the entry's header records that
            validation already ran — the decomposition validity check.
            ``keep_node_distances=True`` bypasses the cache (per-node
            matrices are not persisted).
        """
        cfg = resolve_config(
            config,
            separator=separator,
            method=method,
            semiring=semiring,
            leaf_size=leaf_size,
            executor=executor,
            validate=validate,
            keep_node_distances=keep_node_distances,
            kernel=kernel,
            cache=cache,
            cache_dir=cache_dir,
            mode=mode,
            eps=eps,
            hopset_beta=hopset_beta,
        )
        # Distance-fidelity dispatch (the hopset subsystem, repro.hopset):
        # "approx" skips the separator machinery entirely; "auto" scores the
        # best first-pass tree and gates on cfg.approx_gate; "exact" (the
        # default) is the historical path, bit-for-bit.
        if cfg.mode == "approx":
            return cls._build_approx(
                graph, cfg,
                decision={"mode": "approx", "why": "mode='approx' requested"},
            )
        if cfg.mode == "auto":
            from ..separators.quality import separability_score

            if tree is None:
                from ..separators.quality import best_first_pass

                try:
                    _, tree = best_first_pass(graph, leaf_size=cfg.leaf_size)
                except Exception as exc:  # noqa: BLE001 — any engine may reject
                    return cls._build_approx(
                        graph, cfg,
                        decision={
                            "mode": "approx",
                            "gate": cfg.approx_gate,
                            "why": (
                                "every first-pass separator engine failed "
                                f"({type(exc).__name__}: {exc})"
                            ),
                        },
                    )
            score = separability_score(tree)
            decision = {"gate": cfg.approx_gate, "separability": score}
            if tree.selection is not None:
                decision["candidates"] = tree.selection.get("candidates")
            if score < cfg.approx_gate:
                decision.update(
                    mode="approx",
                    why=(
                        f"separability {score:.3f} below gate "
                        f"{cfg.approx_gate:g}: building a (1+eps) hopset"
                    ),
                )
                return cls._build_approx(graph, cfg, decision=decision)
            decision.update(
                mode="exact",
                why=(
                    f"separability {score:.3f} at or above gate "
                    f"{cfg.approx_gate:g}: building exact E⁺"
                ),
            )
            sel = dict(tree.selection or {})
            sel["mode_decision"] = decision
            tree.selection = sel
        ledger = Ledger()
        given_tree = tree is not None
        tree = _resolve_tree(graph, tree, cfg.separator, cfg.leaf_size)
        # Post-pass flow refinement — applies to supplied trees too; skipped
        # when separator="flow" just built an already-refined tree.
        if cfg.refine_separators and (given_tree or cfg.separator != "flow"):
            from ..separators.flow import refine_tree

            tree, _ = refine_tree(graph, tree, max_nodes=cfg.refine_max_nodes)
        cache_info: dict = {"mode": cfg.cache, "status": "off"}
        store = key = lock = None
        if cfg.cache != "off":
            if cfg.keep_node_distances:
                cache_info["status"] = "bypass"
            else:
                from ..cache import AugmentationCache, augmentation_key

                store = AugmentationCache(cfg.cache_dir)
                key = augmentation_key(graph, tree, cfg.resolved_semiring, cfg.method)
                cache_info.update(key=key, dir=str(store.dir), status="miss")
                t0 = time.perf_counter()
                oracle = cls._from_cache(store, key, graph, tree, cfg, cache_info)
                if oracle is None and cfg.cache == "readwrite":
                    lock = store.try_lock(key)
                    if lock is None and store.wait_for_entry(key):
                        # A concurrent builder won the lock and finished:
                        # take its entry instead of rebuilding (no stampede).
                        oracle = cls._from_cache(store, key, graph, tree, cfg, cache_info)
                if oracle is not None:
                    if lock is not None:
                        lock.release()
                    cache_info["load_s"] = time.perf_counter() - t0
                    return oracle
        try:
            if cfg.validate:
                tree.validate(graph)
            if cfg.method == "doubling_shared":
                from .doubling_shared import augment_doubling_shared as build_fn
            else:
                build_fn = (
                    augment_leaves_up if cfg.method == "leaves_up" else augment_doubling
                )
            aug = build_fn(
                graph,
                tree,
                cfg.resolved_semiring,
                executor=cfg.executor,
                ledger=ledger,
                keep_node_distances=cfg.keep_node_distances,
                kernel=cfg.kernel,
            )
            # Thread the kernel choice into every relaxer/schedule derived
            # from this augmentation (must precede aug.schedule() below).
            aug.kernel = cfg.kernel
            oracle = cls(
                graph, tree, aug, aug.schedule(), preprocess_ledger=ledger, config=cfg
            )
            if store is not None and cfg.cache == "readwrite":
                t0 = time.perf_counter()
                wrote = store.store(key, aug, config=cfg, validated=cfg.validate)
                cache_info["status"] = "stored" if wrote else "miss"
                cache_info["store_s"] = time.perf_counter() - t0
            oracle.cache_info = cache_info
            return oracle
        finally:
            if lock is not None:
                lock.release()

    @classmethod
    def _from_cache(cls, store, key, graph, tree, cfg, cache_info) -> "ShortestPathOracle | None":
        """One load attempt against the store; ``None`` on a miss.

        For shm-destined builds the entry's edge arrays are streamed into a
        fresh :class:`~repro.pram.shm.ShmArena` (``aug.arena``) so serving
        workers share the pages; close it via :meth:`close` (a finalizer
        covers forgetful owners).  Validation already paid at store time
        (per the entry header) is *not* re-run — the ``validate`` fast
        path of a hit.
        """
        arena = None
        if _is_shm_spec(cfg.executor):
            from ..pram.shm import ShmArena

            arena = ShmArena()
        loaded = store.load(key, arena=arena)
        if loaded is None:
            if arena is not None:
                arena.close()
            return None
        aug, meta = loaded
        if cfg.validate and not meta.get("validated"):
            tree.validate(graph)
        aug.kernel = cfg.kernel
        oracle = cls(graph, tree, aug, aug.schedule(), preprocess_ledger=Ledger(), config=cfg)
        cache_info.update(
            status="hit",
            version=int(meta.get("version", 1)),
            validated=bool(meta.get("validated", False)),
            arena_backed=arena is not None,
        )
        oracle.cache_info = cache_info
        return oracle

    @classmethod
    def _build_approx(
        cls, graph: WeightedDigraph, cfg: OracleConfig, *, decision: dict | None = None
    ) -> "ShortestPathOracle":
        """The hopset build path (``mode="approx"``, or ``mode="auto"``
        below the gate): construct a ``(1+eps)`` hopset instead of E⁺, hang
        it off the trivial one-leaf tree, and serve through the same
        oracle/engine machinery.  Hopset artifacts are cached exactly like
        augmentations, under keys that fold in ``mode``/``eps``/``beta``
        (so they can never collide with exact entries)."""
        from ..hopset import HopsetAugmentation, build_hopset, trivial_tree

        ledger = Ledger()
        tree = trivial_tree(graph.n)
        if decision is not None:
            tree.selection = {"mode_decision": decision}
        semiring = cfg.resolved_semiring
        cache_info: dict = {"mode": cfg.cache, "status": "off"}
        store = key = lock = None
        if cfg.cache != "off":
            from ..cache import AugmentationCache, augmentation_key

            store = AugmentationCache(cfg.cache_dir)
            key = augmentation_key(
                graph, tree, semiring, "hopset",
                mode="approx", eps=cfg.eps, hopset_beta=cfg.hopset_beta,
            )
            cache_info.update(key=key, dir=str(store.dir), status="miss")
            t0 = time.perf_counter()
            oracle = cls._from_cache(store, key, graph, tree, cfg, cache_info)
            if oracle is None and cfg.cache == "readwrite":
                lock = store.try_lock(key)
                if lock is None and store.wait_for_entry(key):
                    oracle = cls._from_cache(store, key, graph, tree, cfg, cache_info)
            if oracle is not None:
                if lock is not None:
                    lock.release()
                cache_info["load_s"] = time.perf_counter() - t0
                if decision is not None and oracle.tree.selection is None:
                    oracle.tree.selection = {"mode_decision": decision}
                return oracle
        try:
            hopset = build_hopset(
                graph, semiring,
                eps=cfg.eps, beta=cfg.hopset_beta, kernel=cfg.kernel,
            )
            ledger.charge(
                work=float(sum(b * p.shape[0] for b, p in zip(hopset.budgets, hopset.pivots)))
                * max(1, graph.m),
                depth=float(max(hopset.budgets, default=1)),
                label="hopset-balls",
            )
            aug = HopsetAugmentation(
                graph=graph,
                tree=tree,
                semiring=semiring,
                src=hopset.src,
                dst=hopset.dst,
                weight=hopset.weight,
                leaf_diameters={},
                node_distances={},
                method="hopset",
                hopset=hopset,
            )
            aug.kernel = cfg.kernel
            oracle = cls(
                graph, tree, aug, aug.schedule(), preprocess_ledger=ledger, config=cfg
            )
            if store is not None and cfg.cache == "readwrite":
                t0 = time.perf_counter()
                wrote = store.store(key, aug, config=cfg, validated=False)
                cache_info["status"] = "stored" if wrote else "miss"
                cache_info["store_s"] = time.perf_counter() - t0
            oracle.cache_info = cache_info
            return oracle
        finally:
            if lock is not None:
                lock.release()

    # -------------------------------------------------------------- #
    # Queries
    # -------------------------------------------------------------- #

    @property
    def semiring(self) -> Semiring:
        return self.augmentation.semiring

    @property
    def diameter_bound(self) -> int:
        """Theorem 3.1(ii) bound on diam(G⁺)."""
        return self.augmentation.diameter_bound

    def distances(self, sources, *, engine: str = "scheduled") -> np.ndarray:
        """Distance rows for each source (``(s, n)``, or ``(n,)`` for a bare
        int).  ``engine`` is ``"scheduled"`` (§3.2) or ``"naive"`` (A3)."""
        if engine == "scheduled":
            return sssp_scheduled(
                self.augmentation, sources, schedule=self.schedule, ledger=self.query_ledger
            )
        if engine == "naive":
            return sssp_naive(self.augmentation, sources, ledger=self.query_ledger)
        raise ValueError("engine must be 'scheduled' or 'naive'")

    def query_engine(
        self,
        config: OracleConfig | None = None,
        *,
        executor=UNSET,
        engine: str = UNSET,
        source_block: int | None = UNSET,
    ):
        """A persistent :class:`~repro.core.query.QueryEngine` over this
        oracle's augmentation.

        Takes the same ``(config, *, executor, engine, source_block)``
        parameter set as :class:`~repro.core.query.QueryEngine` itself;
        the only difference is the serving default ``executor="shm"``
        when neither ``config`` nor the kwarg chooses one (a fresh build
        defaults to ``"serial"``).  The engine reuses the oracle's cached
        G⁺ / relaxer / schedule and (on the ``"shm"`` backend) publishes
        the compiled phase arrays to shared memory once, so every
        subsequent batched query ships only row-range descriptors to a
        warm worker pool.  Close it (or use it as a context manager) when
        done serving.
        """
        from .query import QueryEngine

        if config is None:
            changes = {
                k: v
                for k, v in (
                    ("executor", executor),
                    ("engine", engine),
                    ("source_block", source_block),
                )
                if v is not UNSET
            }
            cfg = OracleConfig(executor="shm").replace(**changes)
        else:
            cfg = resolve_config(
                config, executor=executor, engine=engine, source_block=source_block
            )
        if self.augmentation.method == "hopset":
            from ..hopset import ApproxEngine

            return ApproxEngine(self.augmentation, cfg)
        return QueryEngine(self.augmentation, cfg)

    def shard_fleet(
        self,
        k: int | None = None,
        *,
        config: OracleConfig | None = None,
        backend: str | None = None,
        pin: bool | None = None,
        replicas: int | None = None,
    ):
        """A :class:`~repro.shard.ShardRouter` over this oracle's graph and
        separator tree — K per-shard oracles routed through the
        boundary-clique spine instead of one engine over the whole graph.

        ``k`` / ``backend`` / ``pin`` / ``replicas`` override the
        ``shards`` / ``shard_backend`` / ``shard_pin`` / ``replicas``
        fields of ``config`` (defaulting to this oracle's build config, so
        cache mode, semiring and method carry over to the shard builds).
        ``replicas > 1`` — or a nonzero ``autoscale_target_p99_ms`` in the
        config — serves each shard through a
        :class:`~repro.shard.ReplicaPool` of interchangeable workers.  The
        fleet builds its own shard oracles from the graph; this oracle's
        augmentation is not reused — keep using :meth:`query_engine` for
        single-engine serving.  Close the router (or use it as a context
        manager) to drain the fleet.
        """
        from ..shard import ShardRouter

        if self.augmentation.method == "hopset":
            raise ValueError(
                "shard_fleet() cuts the separator tree into shard subtrees, "
                "but a hopset oracle has no separator decomposition (that is "
                "why it exists); serve it with query_engine() — the server's "
                "replica tier still scales it out"
            )
        cfg = config if config is not None else self.config
        return ShardRouter(
            self.graph, self.tree, cfg,
            k=k, backend=backend, pin=pin, replicas=replicas,
        )

    def distance(self, u: int, v: int) -> float:
        """Exact ``dist_G(u, v)`` (one scheduled pass from ``u``)."""
        return float(self.distances(int(u))[v])

    def distance_matrix(self, sources, targets) -> np.ndarray:
        """``(s, t)`` distances — one scheduled pass per source, columns
        selected (for many targets per source this beats pair queries)."""
        targets = np.asarray(targets, dtype=np.int64)
        return self.distances(sources)[:, targets]

    def nearest_source(self, sources) -> tuple[np.ndarray, np.ndarray]:
        """For every vertex, the closest of ``sources`` and its distance —
        the multi-depot assignment pattern (§1's s-source workload).
        Returns ``(assigned source id, distance)`` arrays of length n;
        unreachable vertices get source −1 and distance +inf."""
        srcs = np.asarray(list(sources), dtype=np.int64)
        dist = self.distances(srcs)
        best = np.argmin(dist, axis=0)
        d = dist[best, np.arange(self.graph.n)]
        assigned = srcs[best]
        assigned = np.where(np.isfinite(d), assigned, -1)
        return assigned, d

    def validate(self, **kwargs):
        """Run the consolidated invariant battery on this oracle's build
        (see :func:`repro.core.validation.validate_pipeline`)."""
        from .validation import validate_pipeline

        return validate_pipeline(self.augmentation, **kwargs)

    def shortest_path_tree(self, source: int) -> np.ndarray:
        """Parent array of a shortest-path tree in the *original* graph."""
        dist = self.distances(int(source))
        return shortest_path_tree(self.graph, int(source), dist)

    def shortest_path_forest(self, sources) -> np.ndarray:
        """Shortest-path trees from each source, shape ``(s, n)`` of parent
        ids — the paper's "shortest-path trees from s sources" deliverable
        (one O(m) tight-edge pass per source on top of the batched
        distance query)."""
        srcs = [int(s) for s in sources]
        dist = self.distances(srcs)
        return np.stack(
            [shortest_path_tree(self.graph, s, dist[i]) for i, s in enumerate(srcs)]
        )

    def with_new_weights(
        self,
        weight: np.ndarray | None = None,
        *,
        weight_delta=None,
        graph: WeightedDigraph | None = None,
        reweight: str | None = None,
        validate: bool | str | None = None,
    ) -> "ShortestPathOracle":
        """Refresh the oracle for new weights and/or edge directions while
        reusing the separator decomposition — paper comment (iv): "the
        separator decomposition ... depends only on the undirected
        unweighted skeleton of G, and hence needs to be computed only once
        for a group of instances which differ in the weights and direction
        on edges."

        Pass exactly one of:

        ``weight``
            Full weight vector in the original edge order (a reweighting).
        ``weight_delta``
            A *sparse* reweighting: either a ``{edge_id: new_weight}``
            mapping or an ``(edge_ids, new_weights)`` pair; untouched
            edges keep their current weight.  On the incremental path the
            sweep is further restricted to the root paths of the leaves
            containing the changed edges.
        ``graph``
            Any graph sharing the skeleton (e.g. ``self.graph.reverse()``).

        ``reweight`` (default: ``config.reweight``) picks the refresh
        strategy.  ``"auto"``/``"incremental"`` replay the captured build
        provenance leaves-up over the existing E⁺ *structure* — no
        separator recursion and no schedule rebuild (the §3.2 phase
        permutations are weight-independent and cloned) — which is an
        order of magnitude cheaper than a rebuild and bit-identical to
        one.  The replay path requires a ``leaves_up`` lineage and an
        unchanged skeleton (same ``src``/``dst`` arrays); ``"incremental"``
        raises when those do not hold, ``"auto"`` falls back to
        ``"rebuild"``.  Sparse deltas additionally need the lineage's
        retained heap state (present on any oracle *produced by* an
        incremental reweight; a cold-built ancestor serves the first
        refresh densely).

        ``validate`` (default: ``config.validate``) on the incremental
        path checks shortcut *weights* only — :meth:`Augmentation.
        verify_edges` against ground-truth Bellman–Ford — because the
        structure (decomposition, E⁺ pairs, schedule) is inherited from a
        build that already vouched for it.  Pass ``validate="full"`` to
        additionally rerun the structural decomposition check.
        """
        given = [weight is not None, weight_delta is not None, graph is not None]
        if sum(given) != 1:
            raise ValueError("pass exactly one of weight=, weight_delta= or graph=")
        dirty_edges = None
        if weight_delta is not None:
            if isinstance(weight_delta, dict):
                idx = np.fromiter(weight_delta.keys(), dtype=np.int64, count=len(weight_delta))
                vals = np.fromiter(
                    (weight_delta[int(i)] for i in idx),
                    dtype=self.graph.weight.dtype,
                    count=idx.shape[0],
                )
            else:
                idx, vals = weight_delta
                idx = np.asarray(idx, dtype=np.int64)
                vals = np.asarray(vals, dtype=self.graph.weight.dtype)
            if idx.size and (idx.min() < 0 or idx.max() >= self.graph.m):
                raise ValueError("weight_delta edge ids out of range")
            w = self.graph.weight.copy()
            w[idx] = vals  # absolute assignment: applying a delta twice is a no-op
            dirty_edges = idx
            graph = WeightedDigraph(self.graph.n, self.graph.src, self.graph.dst, w)
        elif graph is None:
            graph = WeightedDigraph(self.graph.n, self.graph.src, self.graph.dst, weight)
        if graph.n != self.tree.n:
            raise ValueError("new graph must have the same vertex set")
        mode = self.config.reweight if reweight is None else reweight
        if mode not in ("auto", "incremental", "rebuild"):
            raise ValueError(f"reweight must be auto/incremental/rebuild, got {mode!r}")
        if validate is None:
            validate = self.config.validate
        if self.augmentation.method == "hopset":
            return self._reweight_hopset(graph, mode, validate)
        method = self.augmentation.method
        if method not in ("leaves_up", "doubling", "doubling_shared"):
            method = "leaves_up"
        same_skeleton = (
            graph.m == self.graph.m
            and np.array_equal(graph.src, self.graph.src)
            and np.array_equal(graph.dst, self.graph.dst)
        )
        incremental_ok = method == "leaves_up" and same_skeleton
        if mode == "incremental" and not incremental_ok:
            raise ValueError(
                "reweight='incremental' needs a leaves_up lineage and an "
                "unchanged edge skeleton (same src/dst arrays); pass "
                "reweight='auto' to fall back to a rebuild"
            )
        cfg = self.config.replace(
            method=method,
            semiring=self.semiring,
            keep_node_distances=bool(self.augmentation.node_distances),
        )
        if mode != "rebuild" and incremental_ok:
            return self._reweight_incremental(graph, dirty_edges, cfg, validate)
        # Rebuild with the *original* build config — in particular its
        # executor and kernel choices, which earlier versions silently
        # dropped back to the defaults here — updating only what the new
        # instance dictates (method/semiring follow the augmentation,
        # keep_node_distances follows whether matrices were retained).
        if validate == "full":
            cfg = cfg.replace(validate=True)
        oracle = ShortestPathOracle.build(graph, self.tree, config=cfg)
        # Reweighting bumps the lineage's weights epoch so any per-source
        # distance-row cache keyed against the old augmentation can tell the
        # two apart (see QueryEngine's row LRU).
        oracle.augmentation.weights_epoch = self.augmentation.weights_epoch + 1
        return oracle

    def _reweight_incremental(
        self, graph: WeightedDigraph, dirty_edges, cfg: OracleConfig, validate
    ) -> "ShortestPathOracle":
        """The provenance-replay path of :meth:`with_new_weights`."""
        from .reweight import ReweightPlan

        plan = self._reweight_plan
        if plan is None:
            plan = ReweightPlan.capture(self.graph, self.tree)
        # Phase permutations are structure-only; record them once against
        # this lineage's E⁺ so every subsequent reweight clones instead of
        # rebuilding the schedule.
        plan.ensure_schedule_cache(self.augmentation)
        self._reweight_plan = plan
        base_state = getattr(self.augmentation, "_reweight_state", None)
        if base_state is None:
            dirty_edges = None  # no retained heap: first refresh runs densely
        aug = plan.run(
            graph,
            self.semiring,
            base_state=base_state,
            dirty_edges=dirty_edges,
            keep_node_distances=cfg.keep_node_distances,
            kernel=cfg.kernel,
        )
        aug.weights_epoch = self.augmentation.weights_epoch + 1
        if validate:
            if validate == "full":
                self.tree.validate(graph)
            if self.semiring.name in ("min-plus", "hops"):
                # The baseline re-derivation (Bellman–Ford) may associate
                # float sums differently than the replayed kernels, so a
                # few ulps of deviation are healthy; the repo-wide 1e-9
                # threshold separates that from real corruption.
                dev = aug.verify_edges()
                if dev > 1e-9:
                    raise AssertionError(
                        f"reweighted shortcut weights deviate from ground "
                        f"truth by {dev!r}"
                    )
        oracle = ShortestPathOracle(
            graph,
            self.tree,
            aug,
            aug.schedule(),
            preprocess_ledger=Ledger(),
            config=cfg,
        )
        oracle.cache_info = {"mode": cfg.cache, "status": "reweight"}
        oracle._reweight_plan = plan
        return oracle

    def _reweight_hopset(
        self, graph: WeightedDigraph, mode: str, validate
    ) -> "ShortestPathOracle":
        """The rebuild-or-replay decision for a hopset lineage.

        With an unchanged edge skeleton, ``"auto"``/``"incremental"``
        *replay* the prior construction — same pivot sample, same scale
        budgets, only the hop-limited balls re-run over the new weights —
        so the approximation structure (and the cacheable identity of the
        artifact) is stable across the reweighting lineage.  A changed
        skeleton (or ``"rebuild"``) resamples from scratch.
        """
        from ..hopset import HopsetAugmentation, build_hopset, replay_hopset

        cfg = self.config
        prior = getattr(self.augmentation, "hopset", None)
        same_skeleton = (
            graph.m == self.graph.m
            and np.array_equal(graph.src, self.graph.src)
            and np.array_equal(graph.dst, self.graph.dst)
        )
        if mode == "incremental" and not (same_skeleton and prior is not None):
            raise ValueError(
                "reweight='incremental' on a hopset oracle needs an unchanged "
                "edge skeleton (same src/dst arrays) and a recorded pivot "
                "sample; pass reweight='auto' to fall back to a resample"
            )
        if mode != "rebuild" and same_skeleton and prior is not None:
            hopset = replay_hopset(
                graph, prior, semiring=self.semiring, kernel=cfg.kernel
            )
            status = "reweight"
        else:
            hopset = build_hopset(
                graph, self.semiring,
                eps=cfg.eps, beta=cfg.hopset_beta, kernel=cfg.kernel,
            )
            status = "rebuild"
        aug = HopsetAugmentation(
            graph=graph,
            tree=self.tree,
            semiring=self.semiring,
            src=hopset.src,
            dst=hopset.dst,
            weight=hopset.weight,
            leaf_diameters={},
            node_distances={},
            method="hopset",
            hopset=hopset,
        )
        aug.kernel = cfg.kernel
        aug.weights_epoch = self.augmentation.weights_epoch + 1
        if validate:
            dev = aug.verify_edges()
            if dev > 1e-9:
                raise AssertionError(
                    f"replayed hopset shortcuts underestimate ground-truth "
                    f"distances by {dev!r}"
                )
        oracle = ShortestPathOracle(
            graph, self.tree, aug, aug.schedule(),
            preprocess_ledger=Ledger(), config=cfg,
        )
        oracle.cache_info = {"mode": cfg.cache, "status": status}
        return oracle

    def path(self, u: int, v: int) -> list[int] | None:
        """An explicit minimum-weight ``u→v`` path (original edges only)."""
        parent = self.shortest_path_tree(u)
        return reconstruct_path(parent, int(u), int(v))

    def measured_diameter(self) -> int:
        """Empirical diam(G⁺); validation-scale only."""
        return measured_diameter(self.augmentation)

    def stats(self) -> dict:
        """Key pipeline numbers: sizes, bounds, ledger work/depth."""
        s = self.augmentation.stats()
        s.setdefault("mode", "exact")
        s.update(
            preprocess_work=self.preprocess_ledger.work,
            preprocess_depth=self.preprocess_ledger.depth,
            schedule_phases=self.schedule.num_phases,
            schedule_edge_scans=self.schedule.edge_scans,
        )
        return s

    def save(self, path) -> None:
        """Persist graph + tree + E⁺ to one ``.npz`` (see :mod:`repro.io`);
        reload with :meth:`load` — the schedule is recompiled on load.  The
        build config travels in the archive header, so a loaded oracle
        keeps this build's ``kernel`` / ``executor`` / serving knobs."""
        from ..io import save_augmentation

        save_augmentation(
            path, self.augmentation, config=self.config, validated=self.config.validate
        )

    @classmethod
    def load(cls, path) -> "ShortestPathOracle":
        """Rebuild an oracle persisted with :meth:`save`.

        Per-node distance matrices are not persisted; use
        ``with_new_weights(weight=graph.weight)`` style rebuilds when the
        k-pair oracle is needed afterwards.  Format-2 archives restore the
        saved :class:`OracleConfig`; legacy archives fall back to defaults.
        """
        from ..io import load_augmentation

        aug, meta = load_augmentation(path, with_meta=True)
        saved = meta.get("config")
        if saved:
            known = {f.name for f in dataclasses.fields(OracleConfig)}
            cfg = OracleConfig.from_dict({k: v for k, v in saved.items() if k in known})
        else:
            cfg = OracleConfig()
        changes: dict = dict(
            semiring=aug.semiring,
            keep_node_distances=bool(aug.node_distances),
        )
        if aug.method == "hopset":
            # A hopset lineage: cfg.method stays whatever the build used
            # (it names the E⁺ algorithm, which did not run); the mode is
            # what marks the artifact approximate.
            changes["mode"] = "approx"
        elif aug.method in ("leaves_up", "doubling", "doubling_shared"):
            changes["method"] = aug.method
        else:
            changes["method"] = "leaves_up"
        cfg = cfg.replace(**changes)
        aug.kernel = cfg.kernel
        return cls(
            aug.graph, aug.tree, aug, aug.schedule(),
            preprocess_ledger=Ledger(), config=cfg,
        )

    def close(self) -> None:
        """Release the warm-start arena of a cache-hit shm build (if any);
        idempotent and optional — the arena's finalizer unlinks segments at
        GC time for owners that forget.  Views already handed out stay
        readable in this process; new worker attaches stop working."""
        arena = getattr(self.augmentation, "arena", None)
        if arena is not None:
            arena.close()

    def check_no_negative_cycle(self) -> bool:
        """Independent Bellman–Ford certificate (the build already raises on
        a negative cycle; this is the cross-check)."""
        return not has_negative_cycle(self.graph)
