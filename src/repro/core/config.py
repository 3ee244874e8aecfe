"""One configuration object for the whole pipeline: :class:`OracleConfig`.

The build/serve surface grew one keyword at a time — ``method=`` on
:meth:`~repro.core.api.ShortestPathOracle.build`, ``executor=`` on the
augmentation builders, ``engine=`` on the query paths, ``kernel=`` on
everything — and every layer (facade, query engine, CLI, server) repeated
the same sprawl.  :class:`OracleConfig` consolidates the knobs into a single
frozen dataclass that travels intact through ``build`` →
``oracle.query_engine()`` → the socket server → the CLI.

The three historically overloaded knob names keep their meaning everywhere
(see ``docs/KNOBS.md`` for the one-page reference):

``engine``
    *Relaxation mode* of a query: ``"scheduled"`` (one exact §3.2 pass) or
    ``"naive"`` (full-edge Bellman–Ford to convergence).
``executor``
    *Hardware backend* running independent work:
    ``"serial" | "thread[:N]" | "shm[:N]"`` (or an executor instance) per
    :func:`repro.pram.executor.get_executor`; a spec string is checked
    against this grammar when the config is made.
``kernel``
    *Min-plus inner-loop implementation* used by preprocessing products
    and relaxation phases: ``None``/``"auto" | "reference" | "blocked" |
    "pruned" | "jit"`` per :mod:`repro.kernels.dispatch`; all choices are
    bit-identical (``"jit"`` is the compiled numba backend and requires
    the optional ``repro[jit]`` extra).

Back-compat contract
--------------------
Every call site that accepts ``config=`` keeps its historical kwargs.  A
kwarg alone behaves exactly as before (it overlays the defaults).  A kwarg
*and* a config that disagree emit a :class:`DeprecationWarning` and the
explicit kwarg wins — so existing callers see zero behavior change, and
mixed callers are nudged toward the config object.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable

from ..pram.executor import parse_spec
from .semiring import MIN_PLUS, SEMIRINGS, Semiring

__all__ = ["OracleConfig", "UNSET", "resolve_config"]


class _Unset:
    """Sentinel distinguishing 'kwarg not passed' from any real value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<UNSET>"


#: The module-wide sentinel used as the default of every back-compat kwarg.
UNSET = _Unset()

_METHODS = ("leaves_up", "doubling", "doubling_shared")
_MODES = ("exact", "approx", "auto")
_ENGINES = ("scheduled", "naive")


def _mode_error(name: object) -> ValueError:
    """A helpful error for an unknown distance mode: names every valid mode
    (same pattern as the kernel dispatcher's ``_kernel_error`` and the
    separator registry's ``_engine_error``)."""
    have = ", ".join(_MODES)
    return ValueError(
        f"unknown mode {name!r}; valid modes: {have} ('exact' serves exact "
        f"E⁺ distances, 'approx' builds a (1+eps) hopset, 'auto' gates on "
        f"separator quality via approx_gate; select via mode= or "
        f"OracleConfig.mode)"
    )
_KERNELS = (None, "auto", "reference", "blocked", "pruned", "jit")
_CACHE_MODES = ("off", "read", "readwrite")
_SHARD_BACKENDS = ("inline", "process")
_REWEIGHT_MODES = ("auto", "incremental", "rebuild")


@dataclass(frozen=True)
class OracleConfig:
    """Frozen bundle of every pipeline knob (build + serve).

    Attributes
    ----------
    method:
        Augmentation algorithm: ``"leaves_up"`` (Algorithm 4.1),
        ``"doubling"`` (Algorithm 4.3) or ``"doubling_shared"``
        (Remark 4.4 shared pairing table).
    mode:
        Distance fidelity: ``"exact"`` builds E⁺ and serves exact
        distances; ``"approx"`` builds a sampled-pivot ``(1+eps)`` hopset
        instead (:mod:`repro.hopset`) — the fit for dense digraphs,
        expanders and other graphs with no good separator; ``"auto"``
        scores the best first-pass separator tree
        (:func:`repro.separators.quality.separability_score`) and takes
        the hopset path when the score falls below ``approx_gate``.
    eps:
        Approximation slack of the hopset modes: every served distance
        satisfies ``d <= d_hat <= (1+eps)*d``.  Smaller eps means finer
        shortcut-weight rounding (a larger, slower-to-build hopset);
        ignored in exact mode.
    hopset_beta:
        Base hop budget ``k`` of the hopset construction (pivot rate
        ``3*ln(n)/k``, ball depth ``k``); ``0`` derives the
        work-balancing default ``k ~ sqrt(n*ln n)``.
    approx_gate:
        Separability threshold of ``mode="auto"``: below it the hopset
        path is taken, at or above it the exact E⁺ build runs.  Scores
        live in ``[0, 1]`` (grids score near 1, expanders near 0).
    separator:
        Decomposition engine when no tree is supplied: ``"auto"`` /
        ``"spectral"``, ``"planar"``, ``"treewidth"``, ``"multilevel"``,
        ``"lipton_tarjan"``, ``"flow"`` (max-flow refinement of the best
        first-pass engine), or a callable separator oracle.
    semiring:
        A :class:`~repro.core.semiring.Semiring` or its registry name
        (``"min_plus"``, ``"boolean"``, …); names keep the config
        JSON-serializable for the server and CLI.
    leaf_size:
        Decomposition recursion stops below this node size.
    executor:
        Backend spec per :func:`repro.pram.executor.get_executor`.
    kernel:
        Min-plus inner-loop kernel (:mod:`repro.kernels.dispatch`),
        threaded into both the matmuls and the relaxation phases;
        ``"jit"`` selects the compiled numba backend (optional
        ``repro[jit]`` extra — raises at resolve time when absent).
    keep_node_distances:
        Retain per-node distance matrices after the build (needed by the
        k-pair witness oracle; costs memory).
    validate:
        Run the decomposition validity check before augmenting.
    engine:
        Query relaxation mode: ``"scheduled"`` or ``"naive"``.
    source_block:
        Row-block size bounding per-phase temporaries in batched queries
        (``None`` → :data:`repro.core.sssp.SOURCE_BLOCK`).
    cache:
        Augmentation-cache mode for :meth:`ShortestPathOracle.build`:
        ``"off"`` (never touch the store), ``"read"`` (load a hit, never
        write), ``"readwrite"`` (load a hit, persist a miss).  See
        :mod:`repro.cache`.
    cache_dir:
        Store directory override (``None`` → ``REPRO_CACHE_DIR`` or
        ``~/.cache/repro/aug``).
    row_cache:
        Capacity (in source rows) of the per-source distance-row LRU of
        :class:`~repro.core.query.QueryEngine`; ``0`` disables it.
        A repeated source is answered from the cache without relaxation —
        bit-identical by determinism of both engines.
    shards:
        Shard count for the separator-sharded fleet
        (:mod:`repro.shard`): ``0`` serves with a single engine, ``k >= 1``
        cuts the separator tree into ``k`` shard oracles routed through
        the boundary-clique spine.
    shard_backend:
        Where shard engines live: ``"process"`` (one worker process per
        shard, each owning its own shm arena) or ``"inline"`` (K engines
        in the calling process — zero IPC, useful for tests and
        single-CPU hosts).
    shard_pin:
        Pin each shard worker process to one CPU via
        ``os.sched_setaffinity`` (process backend only), so a shard's
        pages stay on the NUMA node of the CPU that computes them.
    replicas:
        Worker replicas per shard for the process-backend fleet. ``1``
        keeps one worker per shard; ``N > 1`` serves every shard through
        a :class:`~repro.shard.replica.ReplicaPool` with least-loaded
        chunked dispatch across N warm replicas — bit-identical results,
        a hot shard no longer caps throughput.
    max_replicas:
        Autoscale ceiling on replicas per shard. ``0`` derives it
        (``replicas`` with autoscale off, ``2 * replicas`` with it on);
        an explicit value must be ``>= replicas``.
    autoscale_target_p99_ms:
        Queue-wait p99 target (milliseconds) driving the hot-shard
        autoscaler; ``0`` disables autoscale. A shard whose recent
        dispatch queue-wait p99 exceeds the target gains a replica
        spawned warm from the augmentation cache (up to
        ``max_replicas``); a shard idling far below it drain-retires an
        extra replica with zero failed in-flight queries.
    admission_queue_limit:
        Admission-control cap on admitted-but-unfinished row requests at
        the :class:`~repro.server.OracleServer`; past it (or when the
        predicted queue wait already exceeds the request deadline) the
        server sheds early with 429 instead of queueing into the
        deadline. ``0`` defers to ``ServerConfig.queue_limit``.
    refine_separators:
        Post-pass flow refinement of the separator tree: after the tree is
        resolved (built *or* supplied), re-solve every node's cut as a
        minimum vertex cut (:mod:`repro.separators.flow`), falling back
        per-node/per-tree whenever balance or validity would suffer.
        Smaller |S(t)| compounds through |E⁺|, the shard spine, and every
        query; costs extra build time. No-op when ``separator="flow"``
        already refined the tree.
    refine_max_nodes:
        Guardrail for the refiner: tree nodes whose subgraph exceeds this
        many vertices keep their unrefined cut, bounding the extra
        preprocessing the flow solver may spend.
    reweight:
        How :meth:`ShortestPathOracle.with_new_weights` refreshes E⁺:
        ``"auto"`` replays captured build provenance leaves-up when the
        skeleton and method allow it and falls back to a full rebuild
        otherwise; ``"incremental"`` requires the replay path (raises if
        ineligible); ``"rebuild"`` always reruns the §4 construction.
        All modes produce bit-identical augmentations.
    """

    method: str = "leaves_up"
    mode: str = "exact"
    eps: float = 0.1
    hopset_beta: int = 0
    approx_gate: float = 0.5
    separator: str | Callable | None = "auto"
    semiring: str | Semiring = MIN_PLUS
    leaf_size: int = 8
    executor: Any = "serial"
    kernel: str | None = None
    keep_node_distances: bool = False
    validate: bool = False
    engine: str = "scheduled"
    source_block: int | None = None
    cache: str = "off"
    cache_dir: str | None = None
    row_cache: int = 0
    shards: int = 0
    shard_backend: str = "process"
    shard_pin: bool = False
    replicas: int = 1
    max_replicas: int = 0
    autoscale_target_p99_ms: float = 0.0
    admission_queue_limit: int = 0
    refine_separators: bool = False
    refine_max_nodes: int = 20_000
    reweight: str = "auto"

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.mode not in _MODES:
            raise _mode_error(self.mode)
        if float(self.eps) < 0:
            raise ValueError(f"eps must be >= 0, got {self.eps!r}")
        if int(self.hopset_beta) < 0:
            raise ValueError(
                f"hopset_beta must be >= 0 (0 derives sqrt(n*ln n)), "
                f"got {self.hopset_beta!r}"
            )
        if not 0.0 <= float(self.approx_gate) <= 1.0:
            raise ValueError(
                f"approx_gate must be in [0, 1], got {self.approx_gate!r}"
            )
        if isinstance(self.executor, str):
            parse_spec(self.executor)
        if self.engine not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES}, got {self.engine!r}")
        if self.kernel not in _KERNELS:
            raise ValueError(f"kernel must be one of {_KERNELS}, got {self.kernel!r}")
        if isinstance(self.semiring, str) and self.semiring not in SEMIRINGS:
            raise ValueError(
                f"unknown semiring {self.semiring!r}; known: {sorted(SEMIRINGS)}"
            )
        if self.cache not in _CACHE_MODES:
            raise ValueError(f"cache must be one of {_CACHE_MODES}, got {self.cache!r}")
        if int(self.row_cache) < 0:
            raise ValueError(f"row_cache must be >= 0, got {self.row_cache!r}")
        if int(self.shards) < 0:
            raise ValueError(f"shards must be >= 0, got {self.shards!r}")
        if self.shard_backend not in _SHARD_BACKENDS:
            raise ValueError(
                f"shard_backend must be one of {_SHARD_BACKENDS}, "
                f"got {self.shard_backend!r}"
            )
        if int(self.replicas) < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas!r}")
        if int(self.max_replicas) < 0:
            raise ValueError(f"max_replicas must be >= 0, got {self.max_replicas!r}")
        if self.max_replicas and int(self.max_replicas) < int(self.replicas):
            raise ValueError(
                f"max_replicas ({self.max_replicas}) must be >= replicas "
                f"({self.replicas}); pass 0 to derive it"
            )
        if float(self.autoscale_target_p99_ms) < 0:
            raise ValueError(
                "autoscale_target_p99_ms must be >= 0 (0 disables autoscale), "
                f"got {self.autoscale_target_p99_ms!r}"
            )
        if int(self.admission_queue_limit) < 0:
            raise ValueError(
                "admission_queue_limit must be >= 0 (0 defers to the server's "
                f"queue_limit), got {self.admission_queue_limit!r}"
            )
        if int(self.refine_max_nodes) < 1:
            raise ValueError(
                f"refine_max_nodes must be >= 1, got {self.refine_max_nodes!r}"
            )
        if self.reweight not in _REWEIGHT_MODES:
            raise ValueError(
                f"reweight must be one of {_REWEIGHT_MODES}, got {self.reweight!r}"
            )

    # -------------------------------------------------------------- #

    @property
    def resolved_semiring(self) -> Semiring:
        """The :class:`Semiring` instance (resolving a registry name)."""
        if isinstance(self.semiring, str):
            return SEMIRINGS[self.semiring]
        return self.semiring

    @property
    def resolved_max_replicas(self) -> int:
        """The effective per-shard replica ceiling: ``max_replicas`` when
        set, else ``replicas`` (autoscale off) or ``2 * replicas``
        (autoscale on — headroom for the hot shard)."""
        if int(self.max_replicas) > 0:
            return int(self.max_replicas)
        if float(self.autoscale_target_p99_ms) > 0:
            return 2 * int(self.replicas)
        return int(self.replicas)

    @classmethod
    def field_docs(cls) -> dict[str, str]:
        """Per-field documentation parsed from this class's numpy-style
        ``Attributes`` docstring section — the single source the CLI's
        ``--help`` text is generated from (so flag help can never drift
        from the dataclass docs)."""
        lines = (cls.__doc__ or "").splitlines()
        try:
            start = (
                next(i for i, ln in enumerate(lines) if ln.strip() == "Attributes")
                + 2
            )
        except StopIteration:  # pragma: no cover - docstring always present
            return {}
        names = {f.name for f in dataclasses.fields(cls)}
        docs: dict[str, list[str]] = {}
        current: str | None = None
        for line in lines[start:]:
            stripped = line.strip()
            if stripped.endswith(":") and stripped[:-1] in names:
                current = stripped[:-1]
                docs[current] = []
            elif current is not None and stripped:
                docs[current].append(stripped)
        return {k: " ".join(v) for k, v in docs.items()}

    @classmethod
    def field_doc(cls, name: str) -> str:
        """First sentence of :meth:`field_docs` for ``name``, stripped of
        rst markup — sized for an ``argparse`` help string."""
        text = cls.field_docs().get(name, "")
        for role in (":class:", ":meth:", ":mod:", ":func:", ":data:"):
            text = text.replace(role, "")
        text = text.replace("``", "").replace("`~", "").replace("`", "")
        head, _, _ = text.partition(". ")
        return head.rstrip(".") if head else name

    def replace(self, **changes) -> "OracleConfig":
        """A copy with the given fields changed (frozen-friendly)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able dict (semiring by name; non-string separators and
        executor instances are rejected — they cannot cross a socket)."""
        d = dataclasses.asdict(self)
        d["semiring"] = self.resolved_semiring.name
        if callable(self.separator):
            raise TypeError("callable separator is not serializable; pass a name")
        if not (self.executor is None or isinstance(self.executor, str)):
            raise TypeError("executor instance is not serializable; pass a spec string")
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "OracleConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected loudly."""
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown OracleConfig keys: {sorted(extra)}")
        return cls(**d)


def _values_equal(name: str, a: Any, b: Any) -> bool:
    if name == "semiring":
        a = a.name if isinstance(a, Semiring) else a
        b = b.name if isinstance(b, Semiring) else b
    return a is b or a == b


def resolve_config(config: OracleConfig | None, **overrides) -> OracleConfig:
    """Merge back-compat kwargs over a config into one resolved config.

    ``overrides`` values equal to :data:`UNSET` are ignored (the kwarg was
    not passed).  With ``config=None``, the remaining overrides simply fill
    an :class:`OracleConfig` — the historical kwargs-only path, bit-for-bit.
    With a config given, an explicitly passed kwarg that *disagrees* with
    the config emits a :class:`DeprecationWarning` and wins, so legacy
    callers migrating incrementally never change behavior silently.
    """
    changes = {k: v for k, v in overrides.items() if v is not UNSET}
    if config is None:
        return OracleConfig(**changes)
    conflicts = [
        k for k, v in changes.items() if not _values_equal(k, v, getattr(config, k))
    ]
    if conflicts:
        warnings.warn(
            "both config= and explicit kwargs were given with different values "
            f"for {conflicts}; the explicit kwargs win. Pass the value inside "
            "OracleConfig (kwarg overrides of a config are deprecated).",
            DeprecationWarning,
            stacklevel=3,
        )
    return config.replace(**changes) if changes else config
