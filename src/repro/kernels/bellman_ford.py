"""Parallel (Jacobi-style) Bellman–Ford relaxation.

Paper §2.2: on a graph with minimum-weight diameter ``diam(G)``, single
source shortest paths take O(diam·log n) PRAM time and O(m·diam) work by
running ``diam`` synchronous phases, each scanning every edge.  This module
implements that phase engine in vectorized form:

* one phase = extend all edges from current distances and ⊕-reduce
  per head vertex.  The edges are grouped by head into degree buckets
  (:func:`bucket_layout`): heads of one in-degree class ⌈log₂ deg⌉ share a
  k-major ``(k, g)`` block, padded with repeats of each head's own last
  edge, so the per-head ⊕ is a reduction over ``k`` contiguous slabs of
  ``g`` values instead of one scalar loop per head;
* all sources are relaxed simultaneously as rows of an ``(s, n)`` matrix,
  which is exactly the PRAM's per-source independence.

The *scheduled* variant of §3.2 — which scans different edge subsets in
different phases — reuses :class:`EdgeRelaxer` with one relaxer per phase
group (see :mod:`repro.core.scheduler`).

A phase charges ``work = s·(edges scanned)`` and ``depth = ⌈log₂ n⌉`` to the
ledger (the ⊕-reduction tree per head vertex).
"""

from __future__ import annotations

import numpy as np

from ..core.digraph import WeightedDigraph
from ..core.semiring import MIN_PLUS, Semiring
from ..pram.machine import NULL_LEDGER, Ledger, reduce_depth

__all__ = [
    "EdgeRelaxer",
    "bucket_layout",
    "bellman_ford",
    "initial_distances",
    "phases_to_convergence",
    "min_weight_diameter",
    "run_phases",
    "NegativeCycleError",
]


class NegativeCycleError(ValueError):
    """Raised when a relaxation is asked to certify distances but a negative
    cycle is reachable from some source."""


def bucket_layout(dst: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Degree-bucketed (ELL-style) grouping of an edge list by head vertex.

    Heads are grouped by in-degree class ⌈log₂ deg⌉.  Bucket ``b`` holds
    ``g`` heads whose largest in-degree is ``k`` and stores their edges as
    one k-major ``(k, g)`` block: entry ``[j, h]`` is the ``j``-th edge (in
    input order) into head ``h``, and a head with fewer than ``k`` edges
    repeats its last edge.  The repeats are exact because every shipped ⊕
    (min / max / or) is a selection, and since every in-degree of a class
    exceeds ``k/2`` the padded layout has fewer than ``2m`` entries.

    Returns ``(perm, targets, buckets)``: ``perm`` indexes the input edges
    in layout order (blocks back to back, each flattened row-major),
    ``targets`` lists the heads in bucket order, and ``buckets`` is an
    ``(B, 3)`` int64 array of ``(k, g, edges)`` rows, ``edges`` being the
    bucket's unpadded edge count.
    """
    dst = np.asarray(dst, dtype=np.int64)
    m = int(dst.shape[0])
    if not m:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty((0, 3), dtype=np.int64)
    order = np.argsort(dst, kind="stable")
    dst_sorted = dst[order]
    new_group = np.ones(m, dtype=bool)
    new_group[1:] = dst_sorted[1:] != dst_sorted[:-1]
    starts = np.flatnonzero(new_group)
    deg = np.diff(np.append(starts, m))
    degree_class = np.frexp(deg - 1)[1]  # ⌈log₂ deg⌉, exact for integers
    heads = np.argsort(degree_class, kind="stable")
    cls_sorted = degree_class[heads]
    cut = np.flatnonzero(cls_sorted[1:] != cls_sorted[:-1]) + 1
    bounds = np.concatenate(([0], cut, [heads.shape[0]]))
    perm_parts, buckets = [], []
    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        hb = heads[a:b]
        deg_b = deg[hb]
        k = int(deg_b.max())
        slot = np.minimum(np.arange(k)[:, None], deg_b - 1)
        perm_parts.append(order[starts[hb] + slot].ravel())
        buckets.append((k, b - a, int(deg_b.sum())))
    perm = np.concatenate(perm_parts)
    return perm, dst_sorted[starts[heads]], np.array(buckets, dtype=np.int64)


def _as_rows(dist: np.ndarray) -> np.ndarray:
    """``dist`` as a 2-D ``(rows, n)`` view; a 1-D vector is one row."""
    if dist.ndim == 1:
        return dist[None, :]
    if dist.ndim == 2:
        return dist
    raise ValueError(f"distances must be 1-D or 2-D, got shape {dist.shape}")


class EdgeRelaxer:
    """Relaxation engine for a fixed edge set, grouped by head vertex.

    The edges are laid out once by :func:`bucket_layout`: heads of one
    in-degree class share a k-major ``(k, g)`` block, so a phase is one
    gather and one ⊗ per bucket, a ⊕-reduction over the ``k`` contiguous
    slabs of each block, then one gather of the current values, one
    improvement test and one ⊕-assignment for the whole phase — no
    Python-level per-edge or per-head work.  Every candidate reads the
    pre-phase values, so the phase is synchronous (Jacobi).

    ``kernel`` selects the phase implementation the same way it does for
    the matmuls (:mod:`repro.kernels.dispatch`): ``None`` defers to the
    process default (``$REPRO_KERNEL`` / :func:`~repro.kernels.dispatch.
    set_default_kernel`), ``"jit"`` forces the compiled bucket core of
    :mod:`repro.kernels.jit` (raising the numba-extra error when
    unavailable), ``"auto"`` takes the compiled core when it is importable
    and the phase clears the (autotunable) ``jit_min_relax_ops`` scan
    floor, and any numpy matmul name keeps the numpy path.  Every choice
    is bit-identical: both read the same layout, both buffer the grouped ⊕
    before writing, and every shipped ⊕ is an exact selection.
    """

    __slots__ = ("semiring", "m", "kernel", "_src", "_w", "_targets", "_buckets", "_blocks")

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        weight: np.ndarray,
        semiring: Semiring = MIN_PLUS,
        kernel: str | None = None,
    ) -> None:
        perm, targets, buckets = bucket_layout(dst)
        src = np.asarray(src, dtype=np.int64)
        weight = np.asarray(weight, dtype=semiring.dtype)
        self._bind(src[perm], weight[perm], targets, buckets, semiring, kernel)

    def _bind(self, src, w, targets, buckets, semiring, kernel) -> None:
        self.semiring = semiring
        self.kernel = kernel
        self._src = src
        self._w = w
        self._targets = targets
        self._buckets = buckets
        # Per-bucket (k, g) views of the flat arrays: no copies, so arrays
        # living in shared memory stay zero-copy.
        blocks, off = [], 0
        for k, g, _ in buckets.tolist():
            end = off + k * g
            blocks.append((src[off:end].reshape(k, g), w[off:end].reshape(k, g)))
            off = end
        self._blocks = blocks
        self.m = int(buckets[:, 2].sum())

    @classmethod
    def from_graph(
        cls,
        g: WeightedDigraph,
        semiring: Semiring = MIN_PLUS,
        kernel: str | None = None,
    ) -> "EdgeRelaxer":
        """Relaxer over all edges of ``g``."""
        return cls(g.src, g.dst, g.weight, semiring, kernel=kernel)

    def compiled(self) -> dict[str, np.ndarray]:
        """The bucketed layout of this relaxer (see :func:`bucket_layout`):
        flat ``src`` and ``w`` in layout order, bucket-ordered ``targets``
        and the ``(B, 3)`` ``buckets`` array.  Feed to :meth:`from_compiled`
        on the other side of a process boundary; the arrays may be
        published to shared memory and passed as descriptors."""
        return {
            "src": self._src,
            "w": self._w,
            "targets": self._targets,
            "buckets": self._buckets,
        }

    @classmethod
    def from_compiled(
        cls,
        arrays: dict[str, np.ndarray],
        semiring: Semiring = MIN_PLUS,
        kernel: str | None = None,
    ) -> "EdgeRelaxer":
        """Rebuild a relaxer from :meth:`compiled` output (no grouping; the
        arrays are used as-is, so shared-memory views stay zero-copy)."""
        obj = cls.__new__(cls)
        obj._bind(
            arrays["src"], arrays["w"], arrays["targets"], arrays["buckets"],
            semiring, kernel,
        )
        return obj

    def _use_jit(self, nrows: int) -> bool:
        """Whether this phase should run on the compiled bucket core (see
        the class docstring for the resolution rules)."""
        name = self.kernel
        if name is None:
            from .dispatch import get_default_kernel

            name = get_default_kernel()
        if name == "jit":
            from . import jit
            from .dispatch import _kernel_error

            if not jit.jit_available():
                raise _kernel_error("jit", via_env=self.kernel is None)
            return jit.relax_supported(self.semiring)
        if name == "auto":
            from . import jit

            if not (jit.jit_available() and jit.relax_supported(self.semiring)):
                return False
            from .dispatch import relax_jit_threshold

            return float(nrows) * self.m >= relax_jit_threshold()
        return False

    def _phase(self, sub: np.ndarray) -> np.ndarray:
        """One synchronous phase over the 2-D ``sub`` in place; returns the
        per-row strictly-improved mask."""
        sr = self.semiring
        if self._use_jit(sub.shape[0]):
            from . import jit

            return jit.relax_phase(
                sub, self._src, self._w, self._targets, self._buckets, sr
            )
        parts = []
        for src_b, w_b in self._blocks:
            cand = np.take(sub, src_b, axis=1)  # (rows, k, g)
            sr.mul(cand, w_b, out=cand)
            parts.append(cand[:, 0] if w_b.shape[0] == 1 else sr.add.reduce(cand, axis=1))
        grouped = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        cur = sub[:, self._targets]
        row_changed = sr.improves(grouped, cur).any(axis=1)
        if row_changed.any():
            sub[:, self._targets] = sr.add(cur, grouped)
        return row_changed

    def _charge(self, ledger: Ledger, rows: int, n: int) -> None:
        ledger.charge(work=float(rows) * self.m, depth=reduce_depth(n), label="bf-phase")

    def relax(self, dist: np.ndarray, *, ledger: Ledger = NULL_LEDGER) -> bool:
        """One synchronous phase over ``dist`` of shape ``(n,)`` or
        ``(rows, n)``, in place.  Returns whether any entry strictly
        improved."""
        view = _as_rows(dist)
        if not self.m:
            return False
        changed = bool(self._phase(view).any())
        self._charge(ledger, view.shape[0], view.shape[1])
        return changed

    def relax_rows(
        self, dist: np.ndarray, rows: np.ndarray, *, ledger: Ledger = NULL_LEDGER
    ) -> np.ndarray:
        """One phase restricted to the given source rows of a 2-D ``dist``;
        returns the (global) indices of rows that strictly improved.

        This is the frontier-pruning primitive: rows are independent
        single-source relaxations, so a row this relaxer did not improve is
        at this relaxer's fixpoint and re-relaxing it can never change it —
        iterate with ``rows = relax_rows(dist, rows)`` until empty and only
        still-converging rows are ever scanned.  The ledger is charged the
        *actual* scanned work ``|rows|·m`` (not ``total rows·m``).
        """
        rows = np.asarray(rows, dtype=np.int64)
        if not self.m or rows.size == 0:
            return rows[:0]
        full = rows.size == dist.shape[0] and bool(
            (rows == np.arange(dist.shape[0])).all()
        )
        sub = dist if full else dist[rows]  # full frontier: in place, no gather
        row_changed = self._phase(sub)
        self._charge(ledger, rows.size, dist.shape[-1])
        if not row_changed.any():
            return rows[:0]
        if sub is not dist:
            dist[rows[row_changed]] = sub[row_changed]
        return rows[row_changed]


def run_phases(
    relaxers: list["EdgeRelaxer"],
    dist: np.ndarray,
    *,
    ledger: Ledger = NULL_LEDGER,
) -> np.ndarray:
    """Run a sequence of relaxation phases over ``dist`` (``(n,)`` or
    ``(rows, n)``) in place, frontier-pruning *consecutive runs of the same
    relaxer object*.

    Within such a run (e.g. the ℓ prefix/suffix full-edge phases of the
    §3.2 schedule, or a Bellman–Ford fixpoint loop) a row the relaxer left
    unchanged is at that relaxer's fixpoint — rows are independent — so it
    is dropped from the frontier for the rest of the run; results are
    bit-identical to relaxing every row every phase, but the ledger is
    charged only the work actually scanned.  Distinct relaxers reset the
    frontier (a row converged under one edge subset may still improve under
    another).
    """
    view = _as_rows(dist)
    i, n_phases = 0, len(relaxers)
    while i < n_phases:
        r = relaxers[i]
        j = i + 1
        while j < n_phases and relaxers[j] is r:
            j += 1
        if j - i == 1:
            r.relax(view, ledger=ledger)
        else:
            active = np.arange(view.shape[0])
            for _ in range(i, j):
                if not active.size:
                    break
                active = r.relax_rows(view, active, ledger=ledger)
        i = j
    return dist


def initial_distances(
    n: int, sources: np.ndarray | list[int], semiring: Semiring = MIN_PLUS
) -> np.ndarray:
    """``(s, n)`` matrix with 1̄ at each source column, 0̄ elsewhere."""
    sources = np.asarray(sources, dtype=np.int64)
    dist = np.full((sources.shape[0], n), semiring.zero, dtype=semiring.dtype)
    dist[np.arange(sources.shape[0]), sources] = semiring.one
    return dist


def bellman_ford(
    g: WeightedDigraph,
    sources: np.ndarray | list[int] | int,
    *,
    semiring: Semiring = MIN_PLUS,
    max_phases: int | None = None,
    check_negative_cycle: bool = False,
    ledger: Ledger = NULL_LEDGER,
) -> np.ndarray:
    """Distances from each source, shape ``(s, n)`` (or ``(n,)`` for a single
    int source).

    Runs until a fixpoint or ``max_phases``.  With ``max_phases=None`` the
    phase count is capped at ``n`` (fixpoint is reached within ``n-1`` phases
    unless a negative cycle is reachable; the extra phase is the standard
    detection margin when ``check_negative_cycle`` is set).
    """
    single = isinstance(sources, (int, np.integer))
    srcs = [int(sources)] if single else list(sources)
    dist = initial_distances(g.n, srcs, semiring)
    relaxer = EdgeRelaxer.from_graph(g, semiring)
    cap = g.n if max_phases is None else max_phases
    # Frontier pruning: only rows that improved last phase can improve again
    # under the same (full) edge set, so converged rows are never rescanned.
    active = np.arange(dist.shape[0])
    phase = 0
    while active.size and phase < cap:
        active = relaxer.relax_rows(dist, active, ledger=ledger)
        phase += 1
    if check_negative_cycle and active.size and relaxer.relax(dist.copy()):
        raise NegativeCycleError("negative-weight cycle reachable from a source")
    return dist[0] if single else dist


def phases_to_convergence(
    g: WeightedDigraph,
    dist: np.ndarray,
    *,
    semiring: Semiring = MIN_PLUS,
    cap: int | None = None,
    ledger: Ledger = NULL_LEDGER,
) -> int:
    """Number of full-scan phases until ``dist`` (modified in place) stops
    improving.  ``cap`` guards against negative cycles (default ``n + 1``).

    With ``dist = initial_distances(n, range(n))`` this measures the
    *minimum-weight diameter* of §2.2: the Jacobi iteration after ``h``
    phases holds exactly the best weight over ≤h-edge paths, so the first
    all-pairs fixpoint phase count equals ``diam(G)``.
    """
    relaxer = EdgeRelaxer.from_graph(g, semiring)
    cap = g.n + 1 if cap is None else cap
    phases = 0
    view = dist if dist.ndim == 2 else dist[None, :]
    active = np.arange(view.shape[0])
    while phases < cap:
        active = relaxer.relax_rows(view, active, ledger=ledger)
        if not active.size:
            break
        phases += 1
    if phases >= cap:
        raise NegativeCycleError("no fixpoint within cap (negative cycle?)")
    return phases


def min_weight_diameter(g: WeightedDigraph, *, semiring: Semiring = MIN_PLUS) -> int:
    """Empirical minimum-weight diameter diam(G) of §2.2 (max over all
    ordered pairs of the fewest edges among optimal paths).

    O(n·m·diam) work — intended for validation at test/bench scale, not as a
    production primitive.
    """
    dist = initial_distances(g.n, np.arange(g.n), semiring)
    return phases_to_convergence(g, dist, semiring=semiring)
