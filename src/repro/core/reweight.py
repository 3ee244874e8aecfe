"""Incremental reweighting — Algorithm 4.1 as a weight-only sweep.

Paper comment (iv): the separator decomposition, and therefore the
*structure* of ``E⁺`` (which vertex pairs get a shortcut, which leaf or
separator clique each shortcut's weight flows through), depends only on the
unweighted skeleton.  A :class:`ReweightPlan` captures that structure once —
per-node matrix offsets into one flat "heap", the per-leaf edge scatter
lists, the per-level gather/scatter index stacks of the child-combine and
three-hop products, the full pair multiset behind E⁺ assembly, and the §3.2
phase permutations — so that re-deriving E⁺ for *new weights on the same
skeleton* is a handful of vectorized passes with **no separator recursion,
no per-node Python loop, and no schedule rebuild**.

Bit-identity with a cold :func:`~repro.core.leaves_up.augment_leaves_up`
build is a hard invariant (test file ``tests/test_reweight.py``); the plan
therefore replays Algorithm 4.1's exact operation order:

* leaves: one padded ``(L, P, P)`` Floyd–Warshall(-with-hops) over all
  leaves at once.  Padding rows/cols hold 0̄, which is absorbing under ⊗ and
  the ⊕-identity, so extra pivots and product terms are elementwise no-ops
  for every shipped semiring.
* internal levels, deepest first: identity init, child blocks ⊕-combined in
  child order (one vectorized pass per child position), a padded batched FW
  on the separator cliques, the three ``Direct[:,S] ⊗ D_S ⊗ Direct[S,:]``
  products as broadcast ⊗/⊕-reductions, and the three ⊕-scatters applied in
  the cold builder's sequence.  The FW pivot loop also replaces the boolean
  closure kernel — transitive closure is unique, so the values agree.
* assembly: the *full* pair multiset (only the structural ``src != dst``
  filter applied) is cached with a stable sort permutation; at reweight the
  0̄ "no path" filter is applied *after* the ⊕-reduction, which provably
  yields the same edge set as filtering first (0̄ is the ⊕-identity, and a
  group that reduces to 0̄ is exactly a group the cold path dropped whole).

The **sparse** path (``dirty_edges``) touches only the root paths of leaves
containing changed edges: every original edge has both endpoints in at
least one leaf and internal direct matrices contain no one-hop edges, so
the dirty set is precisely those leaves plus their ancestors.  Clean nodes'
matrices, diameters and assembly chunks are carried over from the base
:class:`ReweightState`.

Negative-cycle detection replays the cold walk: levels deepest first, nodes
in index order within a level, first offending vertex in label order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..kernels.bellman_ford import EdgeRelaxer, bucket_layout, min_weight_diameter
from .augment import (
    Augmentation,
    NegativeCycleDetected,
    NodeDistances,
)
from .digraph import WeightedDigraph
from .semiring import Semiring
from .septree import SeparatorTree

__all__ = ["ReweightPlan", "ReweightState"]


@dataclass
class ReweightState:
    """Weight-dependent byproducts of one sweep, kept on the augmentation
    (as ``aug._reweight_state``) so a later *sparse* reweight can start from
    them instead of from scratch."""

    #: flat per-node matrix heap (one extra 0̄ sentinel slot at the end).
    heap: np.ndarray
    #: per-leaf min-weight diameters, aligned with the plan's leaf rows.
    leaf_diam: np.ndarray


@dataclass
class _LevelPlan:
    """Index stacks for one internal level (nodes in tree index order)."""

    nodes: np.ndarray            # node idx of the level's internal nodes
    H: int                       # max |S ∪ B| over the level
    S: int                       # max |S| over the level
    init_idx: np.ndarray         # flat heap slots of every node region
    init_ptr: np.ndarray         # per-node ranges into init_idx
    diag_idx: np.ndarray         # flat heap slots of the 1̄ diagonals
    diag_ptr: np.ndarray
    #: per child position: (gather from child, scatter into parent, ptr).
    passes: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    fw_gather: np.ndarray        # (B, S, S) → separator-clique blocks
    a1_gather: np.ndarray        # (B, H, S) → Direct[:, S]
    r_gather: np.ndarray         # (B, S, H) → Direct[S, :]
    block_idx: np.ndarray        # (B, H, H) → full node region
    check_nodes: np.ndarray      # ALL nodes of this tree level, idx order
    check_diag_idx: np.ndarray   # their diagonal slots, concatenated
    check_owner: np.ndarray      # diag slot → row into check_nodes
    check_vertex: np.ndarray     # diag slot → global vertex label


class ReweightPlan:
    """Structure-only replay plan for Algorithm 4.1 on a fixed skeleton.

    Capture once per ``(graph structure, tree)``; every
    :meth:`run` call then re-derives a full :class:`Augmentation` for a new
    weight vector.  The plan is independent of the semiring and of which
    augmentation *method* built the base oracle (Algorithm 4.3 certifies
    the same matrices on ``B×B ∪ S×S``, hence the same E⁺).
    """

    def __init__(self, graph: WeightedDigraph, tree: SeparatorTree) -> None:
        self.tree = tree
        self.n = int(graph.n)
        self.m = int(graph.m)
        self._src = graph.src
        self._dst = graph.dst
        self._capture(graph, tree)
        #: lazily built §3.2 schedule structure (see ensure_schedule_cache).
        self._sched: dict[str, Any] | None = None

    @classmethod
    def capture(cls, graph: WeightedDigraph, tree: SeparatorTree) -> "ReweightPlan":
        """Record the structural provenance of every shortcut weight."""
        return cls(graph, tree)

    # ------------------------------------------------------------------ #
    # capture
    # ------------------------------------------------------------------ #

    def _capture(self, graph: WeightedDigraph, tree: SeparatorTree) -> None:
        nodes = tree.nodes
        n_nodes = len(nodes)
        self.vh: list[np.ndarray] = [None] * n_nodes  # type: ignore[list-item]
        self.node_h = np.zeros(n_nodes, dtype=np.int64)
        for t in nodes:
            vh = (
                np.unique(np.asarray(t.vertices, dtype=np.int64))
                if t.is_leaf
                else np.union1d(t.separator, t.boundary)
            )
            self.vh[t.idx] = vh
            self.node_h[t.idx] = vh.shape[0]
        self.node_off = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(self.node_h**2, out=self.node_off[1:])
        self.heap_size = int(self.node_off[-1])
        self.sentinel = self.heap_size  # one extra 0̄ slot for padded gathers

        self._capture_leaves(graph, tree)
        self._capture_levels(tree)
        self._capture_assembly(tree)

    def _capture_leaves(self, graph: WeightedDigraph, tree: SeparatorTree) -> None:
        leaves = [t for t in tree.nodes if t.is_leaf]
        L = len(leaves)
        self.leaf_nodes = np.array([t.idx for t in leaves], dtype=np.int64)
        self.leaf_row = {int(t.idx): r for r, t in enumerate(leaves)}
        self.leaf_h = self.node_h[self.leaf_nodes]
        self.P = int(self.leaf_h.max(initial=1))
        e_ids, e_src, e_dst, e_cnt = [], [], [], np.zeros(L, dtype=np.int64)
        wb_local, wb_heap, wb_cnt = [], [], np.zeros(L, dtype=np.int64)
        P = self.P
        for r, t in enumerate(leaves):
            vh = self.vh[t.idx]
            ids = np.nonzero(graph.edge_membership(vh))[0]
            e_ids.append(ids)
            e_src.append(np.searchsorted(vh, graph.src[ids]))
            e_dst.append(np.searchsorted(vh, graph.dst[ids]))
            e_cnt[r] = ids.shape[0]
            h = vh.shape[0]
            ii, jj = np.divmod(np.arange(h * h, dtype=np.int64), h)
            wb_local.append(ii * P + jj)
            wb_heap.append(self.node_off[t.idx] + np.arange(h * h, dtype=np.int64))
            wb_cnt[r] = h * h
        self.le_edge = _concat_i64(e_ids)
        self.le_src = _concat_i64(e_src)
        self.le_dst = _concat_i64(e_dst)
        self.le_cnt = e_cnt
        self.le_row = np.repeat(np.arange(L, dtype=np.int64), e_cnt)
        self.wb_local = _concat_i64(wb_local)
        self.wb_heap = _concat_i64(wb_heap)
        self.wb_cnt = wb_cnt
        #: edge id -> rows of the leaves containing it (several when the
        #: edge lies inside overlapping leaf vertex sets).
        order = np.argsort(self.le_edge, kind="stable")
        self._edge_sorted = self.le_edge[order]
        self._edge_sorted_row = self.le_row[order]

    def _capture_levels(self, tree: SeparatorTree) -> None:
        off, node_h, sentinel = self.node_off, self.node_h, self.sentinel
        self.levels: list[_LevelPlan] = []
        for level_nodes in tree.levels_desc():
            internal = [t for t in level_nodes if not t.is_leaf]
            check_nodes = np.array([t.idx for t in level_nodes], dtype=np.int64)
            cd_idx, cd_cnt = [], np.zeros(check_nodes.shape[0], dtype=np.int64)
            for i, t in enumerate(level_nodes):
                h = int(node_h[t.idx])
                cd_idx.append(off[t.idx] + np.arange(h, dtype=np.int64) * (h + 1))
                cd_cnt[i] = h
            check_diag_idx = _concat_i64(cd_idx)
            check_owner = np.repeat(
                np.arange(check_nodes.shape[0], dtype=np.int64), cd_cnt
            )
            check_vertex = _concat_i64([self.vh[t.idx] for t in level_nodes])
            if not internal:
                if check_nodes.size:
                    self.levels.append(_LevelPlan(
                        nodes=np.empty(0, dtype=np.int64), H=0, S=0,
                        init_idx=np.empty(0, dtype=np.int64), init_ptr=_ptr(np.empty(0, dtype=np.int64)),
                        diag_idx=np.empty(0, dtype=np.int64), diag_ptr=_ptr(np.empty(0, dtype=np.int64)),
                        passes=[],
                        fw_gather=np.empty((0, 0, 0), dtype=np.int64),
                        a1_gather=np.empty((0, 0, 0), dtype=np.int64),
                        r_gather=np.empty((0, 0, 0), dtype=np.int64),
                        block_idx=np.empty((0, 0, 0), dtype=np.int64),
                        check_nodes=check_nodes,
                        check_diag_idx=check_diag_idx,
                        check_owner=check_owner,
                        check_vertex=check_vertex,
                    ))
                continue
            B = len(internal)
            idxs = np.array([t.idx for t in internal], dtype=np.int64)
            hs = node_h[idxs]
            ss = np.array([len(t.separator) for t in internal], dtype=np.int64)
            H, S = int(hs.max()), int(max(1, ss.max(initial=0)))
            init_idx, init_cnt = [], np.zeros(B, dtype=np.int64)
            diag_idx, diag_cnt = [], np.zeros(B, dtype=np.int64)
            fw = np.full((B, S, S), sentinel, dtype=np.int64)
            a1 = np.full((B, H, S), sentinel, dtype=np.int64)
            rr = np.full((B, S, H), sentinel, dtype=np.int64)
            blk = np.full((B, H, H), sentinel, dtype=np.int64)
            max_children = max(len(t.children) for t in internal)
            pass_tgt: list[list[np.ndarray]] = [[] for _ in range(max_children)]
            pass_src: list[list[np.ndarray]] = [[] for _ in range(max_children)]
            pass_cnt = [np.zeros(B, dtype=np.int64) for _ in range(max_children)]
            for b, t in enumerate(internal):
                vh = self.vh[t.idx]
                h = int(node_h[t.idx])
                base = off[t.idx]
                init_idx.append(base + np.arange(h * h, dtype=np.int64))
                init_cnt[b] = h * h
                diag_idx.append(base + np.arange(h, dtype=np.int64) * (h + 1))
                diag_cnt[b] = h
                pos_s = np.searchsorted(vh, t.separator)
                s = pos_s.shape[0]
                blk[b, :h, :h] = base + np.arange(h * h, dtype=np.int64).reshape(h, h)
                if s:
                    fw[b, :s, :s] = base + pos_s[:, None] * h + pos_s[None, :]
                    a1[b, :h, :s] = base + np.arange(h, dtype=np.int64)[:, None] * h + pos_s[None, :]
                    rr[b, :s, :h] = base + pos_s[:, None] * h + np.arange(h, dtype=np.int64)[None, :]
                for p, c in enumerate(t.children):
                    child_vh = self.vh[c]
                    bdy = tree.nodes[c].boundary
                    cidx = np.searchsorted(child_vh, bdy)
                    common, pos_vh, pos_child = np.intersect1d(
                        vh, bdy, assume_unique=True, return_indices=True
                    )
                    if common.size == 0:
                        continue
                    ci = cidx[pos_child]
                    pass_tgt[p].append(
                        (base + pos_vh[:, None] * h + pos_vh[None, :]).ravel()
                    )
                    pass_src[p].append(
                        (off[c] + ci[:, None] * node_h[c] + ci[None, :]).ravel()
                    )
                    pass_cnt[p][b] = common.size ** 2
            self.levels.append(_LevelPlan(
                nodes=idxs, H=H, S=S,
                init_idx=_concat_i64(init_idx), init_ptr=_ptr(init_cnt),
                diag_idx=_concat_i64(diag_idx), diag_ptr=_ptr(diag_cnt),
                passes=[
                    (_concat_i64(pass_tgt[p]), _concat_i64(pass_src[p]), _ptr(pass_cnt[p]))
                    for p in range(max_children)
                ],
                fw_gather=fw, a1_gather=a1, r_gather=rr, block_idx=blk,
                check_nodes=check_nodes,
                check_diag_idx=check_diag_idx,
                check_owner=check_owner,
                check_vertex=check_vertex,
            ))

    def _capture_assembly(self, tree: SeparatorTree) -> None:
        n = self.n
        gather, keys = [], []
        for t in tree.nodes:
            vh = self.vh[t.idx]
            h = int(self.node_h[t.idx])
            base = self.node_off[t.idx]
            for group in (t.boundary, t.separator):
                if group.shape[0] < 2:
                    continue
                idx = np.searchsorted(vh, group)
                k = group.shape[0]
                rows = np.repeat(group, k)
                cols = np.tile(group, k)
                flat = (base + idx[:, None] * h + idx[None, :]).ravel()
                keep = rows != cols  # structural filter only; 0̄ is deferred
                gather.append(flat[keep])
                keys.append(rows[keep].astype(np.int64) * n + cols[keep])
        self.asm_gather = _concat_i64(gather)
        key = _concat_i64(keys)
        self.asm_order = np.argsort(key, kind="stable")
        key_s = key[self.asm_order]
        boundaries = np.ones(key_s.shape[0], dtype=bool)
        if key_s.shape[0]:
            boundaries[1:] = key_s[1:] != key_s[:-1]
        self.asm_starts = np.nonzero(boundaries)[0]
        self.asm_uniq = key_s[self.asm_starts]
        self.asm_src = (self.asm_uniq // n).astype(np.int64)
        self.asm_dst = (self.asm_uniq % n).astype(np.int64)

    # ------------------------------------------------------------------ #
    # the sweep
    # ------------------------------------------------------------------ #

    def run(
        self,
        graph: WeightedDigraph,
        semiring: Semiring,
        *,
        base_state: ReweightState | None = None,
        dirty_edges: np.ndarray | None = None,
        keep_node_distances: bool = False,
        raise_on_negative_cycle: bool = True,
        kernel: str | None = None,
    ) -> Augmentation:
        """One weight-only sweep; returns a fresh :class:`Augmentation`
        (with ``_reweight_state`` attached) for ``graph``'s weights.

        ``dirty_edges`` (edge ids whose weight changed, requires
        ``base_state``) restricts the sweep to the root paths of leaves
        containing those edges.  The base state is never mutated — a
        negative-cycle raise leaves the serving augmentation intact.
        ``kernel`` is the lineage's relaxation-kernel preference; it must
        arrive here (not be patched on afterwards) because the cloned
        schedule's relaxers are built before this method returns.
        """
        zero, dtype = semiring.zero, semiring.dtype
        sparse = dirty_edges is not None and base_state is not None
        if sparse:
            dirty_nodes = self._dirty_nodes(np.asarray(dirty_edges, dtype=np.int64))
            heap = base_state.heap.copy()
            leaf_diam = base_state.leaf_diam.copy()
        else:
            dirty_nodes = None
            heap = np.full(self.heap_size + 1, zero, dtype=dtype)
            leaf_diam = np.zeros(self.leaf_nodes.shape[0], dtype=np.int64)

        self._run_leaves(graph, semiring, heap, leaf_diam, dirty_nodes)
        self._run_levels(semiring, heap, dirty_nodes)
        heap[self.sentinel] = zero  # padded scatters keep the slot 0̄
        self._check_cycles(semiring, heap, raise_on_negative_cycle)
        src, dst, weight = self._assemble(semiring, heap)
        diam_map = {int(t): int(d) for t, d in zip(self.leaf_nodes, leaf_diam)}
        node_distances: dict[int, NodeDistances] = {}
        if keep_node_distances:
            for t in self.tree.nodes:
                h = int(self.node_h[t.idx])
                base = int(self.node_off[t.idx])
                node_distances[t.idx] = NodeDistances(
                    node_idx=t.idx,
                    vertices=self.vh[t.idx],
                    matrix=heap[base : base + h * h].reshape(h, h),
                )
        aug = Augmentation(
            graph=graph,
            tree=self.tree,
            semiring=semiring,
            src=src,
            dst=dst,
            weight=weight,
            leaf_diameters=diam_map,
            node_distances=node_distances,
            # the sweep reproduces Algorithm 4.1's output bit-for-bit, so
            # the lineage keeps the builder's method tag (and with it its
            # eligibility for further incremental reweights).
            method="leaves_up",
            kernel=kernel,
        )
        aug._reweight_state = ReweightState(  # type: ignore[attr-defined]
            heap=heap, leaf_diam=leaf_diam
        )
        schedule = self._clone_schedule(aug)
        if schedule is not None:
            aug._schedule = schedule
        return aug

    # -------------------------- leaves ----------------------------- #

    def _dirty_nodes(self, dirty_edges: np.ndarray) -> np.ndarray:
        """Boolean mask over tree nodes: leaves containing a changed edge
        plus all their ancestors (the shortcut root paths)."""
        lo = np.searchsorted(self._edge_sorted, dirty_edges, side="left")
        hi = np.searchsorted(self._edge_sorted, dirty_edges, side="right")
        rows: list[np.ndarray] = [
            self._edge_sorted_row[a:b] for a, b in zip(lo, hi)
        ]
        dirty = np.zeros(len(self.tree.nodes), dtype=bool)
        for r in np.unique(_concat_i64(rows)):
            t = self.tree.nodes[int(self.leaf_nodes[r])]
            while t is not None and not dirty[t.idx]:
                dirty[t.idx] = True
                t = self.tree.nodes[t.parent] if t.parent is not None and t.parent >= 0 else None
        return dirty

    def _run_leaves(
        self,
        graph: WeightedDigraph,
        semiring: Semiring,
        heap: np.ndarray,
        leaf_diam: np.ndarray,
        dirty_nodes: np.ndarray | None,
    ) -> None:
        """Batched leaf APSP + min-weight diameters (the ℓ of Thm 3.1)."""
        P = self.P
        if dirty_nodes is None:
            sel = np.ones(self.leaf_nodes.shape[0], dtype=bool)
        else:
            sel = dirty_nodes[self.leaf_nodes]
        rows = np.nonzero(sel)[0]
        K = rows.shape[0]
        if K == 0:
            return
        hsel = self.leaf_h[rows]
        stack = np.full((K, P, P), semiring.zero, dtype=semiring.dtype)
        ar = np.arange(P)
        stack[:, ar, ar] = semiring.one
        emask = sel[self.le_row]
        row_map = np.cumsum(sel) - 1  # old leaf row -> compact stack row
        e_rows = row_map[self.le_row[emask]]
        e_w = graph.weight[self.le_edge[emask]].astype(semiring.dtype)
        if e_rows.size:
            semiring.scatter_min(
                stack, (e_rows, self.le_src[emask], self.le_dst[emask]), e_w
            )
        real = (ar[None, :] < hsel[:, None])  # (K, P) row/col validity
        if semiring.name in ("min-plus", "hops"):
            hops = np.where(np.isfinite(stack), 1.0, np.inf)
            hops[:, ar, ar] = 0.0
            hops[stack == np.inf] = np.inf
            for k in range(P):
                cand = stack[:, :, k][:, :, None] + stack[:, k, :][:, None, :]
                cand_h = hops[:, :, k][:, :, None] + hops[:, k, :][:, None, :]
                better = cand < stack
                tie = cand == stack
                stack[better] = cand[better]
                hops[better] = cand_h[better]
                np.minimum(hops, np.where(tie, cand_h, np.inf), out=hops)
            diag = stack[:, ar, ar]
            has_bad = ((diag < semiring.one) & real).any(axis=1)
            finite = np.isfinite(hops) & real[:, :, None] & real[:, None, :]
            diam = np.where(finite, hops, -np.inf).max(axis=(1, 2))
            diam = np.where(diam == -np.inf, 0.0, diam).astype(np.int64)
            diam[has_bad] = 0  # cold reports diameter 0 on a bad leaf
            leaf_diam[rows] = diam
        else:
            for k in range(P):
                semiring.add(
                    stack,
                    semiring.mul(stack[:, :, k][:, :, None], stack[:, k, :][:, None, :]),
                    out=stack,
                )
            # Non-min-plus diagonals never improve on 1̄ (⊕ keeps 1̄ best),
            # matching the cold leaf worker's always-clean verdict.
            for r in range(K):
                h = int(hsel[r])
                if h > 1:
                    span = slice(*_leaf_edge_span(self.le_row, rows[r]))
                    sub = WeightedDigraph(
                        h,
                        self.le_src[span],
                        self.le_dst[span],
                        graph.weight[self.le_edge[span]],
                    )
                    leaf_diam[rows[r]] = min_weight_diameter(sub, semiring=semiring)
                else:
                    leaf_diam[rows[r]] = 0
        # write the real regions back into the flat heap
        owners = np.repeat(np.arange(self.leaf_nodes.shape[0]), self.wb_cnt)
        wmask = sel[owners]
        w_rows = row_map[owners[wmask]]
        heap[self.wb_heap[wmask]] = stack.reshape(K, -1)[w_rows, self.wb_local[wmask]]

    # -------------------------- internals --------------------------- #

    def _run_levels(
        self,
        semiring: Semiring,
        heap: np.ndarray,
        dirty_nodes: np.ndarray | None,
    ) -> None:
        sentinel = self.sentinel
        for lp in self.levels:
            if lp.nodes.size == 0:
                continue
            if dirty_nodes is None:
                sel = np.ones(lp.nodes.shape[0], dtype=bool)
            else:
                sel = dirty_nodes[lp.nodes]
            if not sel.any():
                continue
            # identity init of the dirty regions
            init_cnt = np.diff(lp.init_ptr)
            imask = sel[np.repeat(np.arange(sel.shape[0]), init_cnt)]
            heap[lp.init_idx[imask]] = semiring.zero
            diag_cnt = np.diff(lp.diag_ptr)
            dmask = sel[np.repeat(np.arange(sel.shape[0]), diag_cnt)]
            heap[lp.diag_idx[dmask]] = semiring.one
            # ⊕-combine child blocks, one vectorized pass per child position
            for tgt, srcg, ptr in lp.passes:
                cnt = np.diff(ptr)
                pmask = sel[np.repeat(np.arange(sel.shape[0]), cnt)]
                ti, si = tgt[pmask], srcg[pmask]
                heap[ti] = semiring.add(heap[ti], heap[si])
            # separator-clique APSP + the three-hop products, batched
            fw = lp.fw_gather[sel]
            ds = heap[fw]
            S = lp.S
            for k in range(S):
                semiring.add(
                    ds,
                    semiring.mul(ds[:, :, k][:, :, None], ds[:, k, :][:, None, :]),
                    out=ds,
                )
            a1 = heap[lp.a1_gather[sel]]          # (B, H, S) = Direct[:, S]
            rm = heap[lp.r_gather[sel]]           # (B, S, H) = Direct[S, :]
            # A ⊗ B batched: out[b,i,j] = ⊕_k A[b,i,k] ⊗ B[b,k,j].  ⊕ is
            # exact and order-independent for every shipped semiring, so
            # the reduction reassociation stays bit-identical to the cold
            # worker's per-node matmuls.
            left = semiring.add_reduce(
                semiring.mul(a1[:, :, :, None], ds[:, None, :, :]), axis=2
            )
            right = semiring.add_reduce(
                semiring.mul(ds[:, :, :, None], rm[:, None, :, :]), axis=2
            )
            three = semiring.add_reduce(
                semiring.mul(left[:, :, :, None], rm[:, None, :, :]), axis=2
            )
            # the cold worker's exact ⊕ sequence: full block, cols, rows
            bi = lp.block_idx[sel].ravel()
            heap[bi] = semiring.add(heap[bi], three.ravel())
            ci = lp.a1_gather[sel].ravel()
            heap[ci] = semiring.add(heap[ci], left.ravel())
            ri = lp.r_gather[sel].ravel()
            heap[ri] = semiring.add(heap[ri], right.ravel())
            heap[sentinel] = semiring.zero

    def _check_cycles(
        self,
        semiring: Semiring,
        heap: np.ndarray,
        raise_on_negative_cycle: bool,
    ) -> None:
        """Replay the cold builder's negative-cycle walk: levels deepest
        first, nodes in index order, first offending vertex in label order.
        The diag slots are concatenated in exactly that order, so the first
        set bit of one vectorized ``improves`` is the cold verdict.  (A base
        augmentation exists only if it was cycle-free, so on the sparse path
        any offending diagonal necessarily belongs to a dirty node.)"""
        if not raise_on_negative_cycle or semiring.name not in ("min-plus", "hops"):
            return
        one = semiring.one
        for lp in self.levels:
            diag = heap[lp.check_diag_idx]
            bad = semiring.improves(
                diag, np.full(diag.shape[0], one, dtype=semiring.dtype)
            )
            if bad.any():
                p = int(np.argmax(bad))
                raise NegativeCycleDetected(
                    int(lp.check_nodes[int(lp.check_owner[p])]),
                    int(lp.check_vertex[p]),
                )

    # -------------------------- assembly ---------------------------- #

    def _assemble(
        self, semiring: Semiring, heap: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Full vectorized re-reduction of the pair multiset.  A per-node
        # "touched chunks only" variant was measured slower: a spread-out
        # delta dirties most of the multiset mass, and the bookkeeping
        # (inverse permutations, interleaved reduceat) costs more than the
        # single gather + reduceat below.
        starts = self.asm_starts
        w_sorted = heap[self.asm_gather][self.asm_order]
        best = semiring.add.reduceat(w_sorted, starts) if starts.size else (
            np.empty(0, dtype=semiring.dtype)
        )
        if semiring.dtype == np.dtype(bool):
            keep = best.astype(bool)
        else:
            keep = best != semiring.zero
        return self.asm_src[keep], self.asm_dst[keep], best[keep]

    # -------------------------- schedule ---------------------------- #

    def ensure_schedule_cache(self, aug: Augmentation) -> None:
        """Record the §3.2 phase layouts against ``aug``'s E⁺ pair
        structure (phase edge sets and their :func:`~repro.kernels.
        bellman_ford.bucket_layout` groupings are weight-independent)."""
        if self._sched is not None:
            return
        from .scheduler import middle_phase_edges  # local: avoids import cycle

        tree, g = aug.tree, aug.graph
        lv = tree.vertex_level
        src = np.concatenate([g.src, aug.src])
        dst = np.concatenate([g.dst, aug.dst])
        aug_counts = np.zeros(src.shape[0], dtype=np.int64)
        phases = []
        for label, idx in middle_phase_edges(lv[src], lv[dst], tree.height):
            aug_counts[idx] += 1
            perm, targets, buckets = bucket_layout(dst[idx])
            perm = idx[perm]
            phases.append({
                "label": label,
                "perm": perm,
                "src": src[perm],
                "targets": targets,
                "buckets": buckets,
            })

        perm_o, o_targets, o_buckets = bucket_layout(g.dst)
        self._sched = {
            "src": aug.src.copy(),
            "dst": aug.dst.copy(),
            "phases": phases,
            "aug_counts": aug_counts,
            "orig_perm": perm_o,
            "orig_src": g.src[perm_o],
            "orig_targets": o_targets,
            "orig_buckets": o_buckets,
        }

    def _clone_schedule(self, aug: Augmentation):
        """Rebuild a :class:`~repro.core.scheduler.PhaseSchedule` for a new
        weighting by re-gathering per-phase weights through the cached
        padded layout permutations; ``None`` when the pair structure drifted (a weight hit
        0̄ or a 0̄ pair came alive) — the caller then compiles cold."""
        if self._sched is None:
            return None
        sc = self._sched
        if not (
            np.array_equal(aug.src, sc["src"]) and np.array_equal(aug.dst, sc["dst"])
        ):
            return None
        from .scheduler import PhaseSchedule  # local: avoids import cycle

        semiring = aug.semiring
        g = aug.graph
        w = np.concatenate([g.weight.astype(semiring.dtype), aug.weight])
        w_orig = g.weight.astype(semiring.dtype)[sc["orig_perm"]]
        original = EdgeRelaxer.from_compiled(
            {
                "src": sc["orig_src"],
                "w": w_orig,
                "targets": sc["orig_targets"],
                "buckets": sc["orig_buckets"],
            },
            semiring,
            kernel=aug.kernel,
        )
        ell = aug.ell
        relaxers = [original] * ell
        labels = [f"prefix-E-{i + 1}" for i in range(ell)]
        scans = 2 * ell * g.m
        for ph in sc["phases"]:
            r = EdgeRelaxer.from_compiled(
                {
                    "src": ph["src"],
                    "w": w[ph["perm"]],
                    "targets": ph["targets"],
                    "buckets": ph["buckets"],
                },
                semiring,
                kernel=aug.kernel,
            )
            relaxers.append(r)
            labels.append(ph["label"])
            scans += r.m
        relaxers += [original] * ell
        labels += [f"suffix-E-{i + 1}" for i in range(ell)]
        return PhaseSchedule(
            relaxers=relaxers,
            labels=labels,
            edge_scans=scans,
            aug_edge_phase_counts=sc["aug_counts"][g.m :].copy(),
        )


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #


def _concat_i64(chunks: list[np.ndarray]) -> np.ndarray:
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([np.asarray(c, dtype=np.int64) for c in chunks])


def _ptr(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _leaf_edge_span(le_row: np.ndarray, row: int) -> tuple[int, int]:
    """[start, end) of leaf ``row``'s edges in the concatenated edge lists
    (``le_row`` is sorted by construction)."""
    return (
        int(np.searchsorted(le_row, row, side="left")),
        int(np.searchsorted(le_row, row, side="right")),
    )
