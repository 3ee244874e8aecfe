"""Remark 4.4 — path doubling with a shared edge table.

Algorithm 4.3 "as stated performs some redundant work": two edges
``(u₁,u₂)``, ``(u₂,u₃)`` are paired once per node whose ``V_H`` contains all
three vertices, each time against that node's private weights.  Remark 4.4
observes it suffices to keep *one* copy of every edge in ``⋃_t E_H(t)`` and
pair each qualifying triple once, against the minimum weight over nodes —
the pairing table depends only on the ``V_H(t)`` sets and is built once.

Our realization: a single global weight vector over the deduplicated edge
set; per node, a precomputed index matrix mapping its ``V_H(t)²`` block into
the global vector.  A round gathers each block, min-plus squares it, and
scatter-mins the result back — child→parent merging disappears entirely
because shared pairs share storage.

The converged weights satisfy ``dist_G(u,v) ≤ w(u,v) ≤ min_t dist_{G(t)}(u,v)``
(pairing across nodes can only combine true G-walks), so the assembled E⁺ is
still sound (never below a true distance) and complete (no worse than any
node's certificate) — Theorem 3.1 holds verbatim, with possibly *tighter*
shortcut weights than the per-node algorithms.  Tests verify exact query
results and the diameter bound; the ablation bench reports the redundancy
eliminated (Σ_t h_t³ vs distinct-triple work).
"""

from __future__ import annotations

import numpy as np

from ..kernels.minplus import semiring_matmul
from ..pram.executor import run_with_arena
from ..pram.machine import NULL_LEDGER, Ledger, log2ceil
from .augment import Augmentation, NegativeCycleDetected, NodeDistances, assemble_augmentation
from .digraph import WeightedDigraph
from .leaves_up import _leaf_payload, _leaf_worker
from .semiring import MIN_PLUS, Semiring
from .septree import SeparatorTree

__all__ = ["augment_doubling_shared", "SharedEdgeTable"]


class SharedEdgeTable:
    """Deduplicated ``⋃_t V_H(t)²`` edge set with per-node block indexes."""

    def __init__(self, graph: WeightedDigraph, tree: SeparatorTree, semiring: Semiring):
        self.semiring = semiring
        vhs: dict[int, np.ndarray] = {}
        keys_parts = []
        n = graph.n
        for t in tree.nodes:
            if t.is_leaf:
                vh = t.boundary
            else:
                vh = np.union1d(t.separator, t.boundary)
            vhs[t.idx] = vh
            if vh.size:
                # All ordered pairs (u, v) over vh, as u*n + v keys.
                keys_parts.append((vh[:, None] * n + vh[None, :]).ravel())
        keys = (
            np.unique(np.concatenate(keys_parts))
            if keys_parts
            else np.empty(0, dtype=np.int64)
        )
        self.keys = keys
        self.src = keys // n
        self.dst = keys % n
        self.weights = np.full(keys.shape[0], semiring.zero, dtype=semiring.dtype)
        # Diagonal pairs get 1̄ (empty path).
        diag = self.src == self.dst
        self.weights[diag] = semiring.one
        # Original one-hop edges ⊕ in.
        if graph.m and keys.size:
            ekeys = graph.src * n + graph.dst
            pos = np.searchsorted(keys, ekeys)
            hit = (pos < keys.shape[0]) & (keys[np.minimum(pos, keys.shape[0] - 1)] == ekeys)
            semiring.scatter_min(
                self.weights, pos[hit], graph.weight[hit].astype(semiring.dtype)
            )
        # Per-node block index matrices (h×h positions into self.weights).
        self.blocks: dict[int, np.ndarray] = {}
        for idx, vh in vhs.items():
            if vh.size == 0:
                continue
            bkeys = (vh[:, None] * n + vh[None, :]).ravel()
            self.blocks[idx] = np.searchsorted(keys, bkeys).reshape(vh.size, vh.size)
        self.vhs = vhs

    # -------------------------------------------------------------- #

    def absorb_matrix(self, node_idx: int, vertices: np.ndarray, matrix: np.ndarray) -> None:
        """⊕ a node's dense matrix (e.g. a leaf APSP restricted to its
        block vertices) into the shared weights."""
        vh = self.vhs[node_idx]
        if vh.size == 0:
            return
        pos = np.searchsorted(vertices, vh)
        block = matrix[np.ix_(pos, pos)]
        idx = self.blocks[node_idx]
        self.semiring.scatter_min(self.weights, idx.ravel(), block.ravel())

    def square_round(self, *, ledger: Ledger = NULL_LEDGER, kernel: str | None = None) -> bool:
        """One Remark-4.4 round: every node's block is gathered, min-plus
        squared against the *shared* weights, and scattered back.  Returns
        whether anything improved."""
        sr = self.semiring
        changed = False
        work = 0.0
        max_depth = 0.0
        for idx_matrix in self.blocks.values():
            h = idx_matrix.shape[0]
            if h == 0:
                continue
            block = self.weights[idx_matrix]
            prod = semiring_matmul(block, block, sr, kernel=kernel)
            better = sr.improves(prod, block)
            if better.any():
                changed = True
                sr.scatter_min(self.weights, idx_matrix.ravel(), prod.ravel())
            work += float(h) ** 3
            max_depth = max(max_depth, log2ceil(h))
        ledger.charge(work=max(1.0, work), depth=max(1.0, max_depth), label="shared-square")
        return changed

    def node_matrix(self, node_idx: int) -> tuple[np.ndarray, np.ndarray]:
        """(vertices, converged weight block) of one node."""
        vh = self.vhs[node_idx]
        if vh.size == 0:
            return vh, self.semiring.empty_matrix(0, 0)
        return vh, self.weights[self.blocks[node_idx]]

    def distinct_pair_count(self) -> int:
        """Number of deduplicated pairs in ⋃_t V_H(t)²."""
        return int(self.keys.shape[0])

    def redundant_pair_count(self) -> int:
        """Σ_t |V_H(t)|² — what per-node storage/pairing would touch."""
        return int(sum(v.size ** 2 for v in self.vhs.values()))


def augment_doubling_shared(
    graph: WeightedDigraph,
    tree: SeparatorTree,
    semiring: Semiring = MIN_PLUS,
    *,
    executor="serial",
    ledger: Ledger = NULL_LEDGER,
    keep_node_distances: bool = True,
    raise_on_negative_cycle: bool = True,
    early_stop: bool = True,
    kernel: str | None = None,
) -> Augmentation:
    """Compute the augmentation with the Remark-4.4 shared-table doubling.

    ``kernel`` selects the min-plus matmul implementation for the per-node
    squares (see :mod:`repro.kernels.dispatch`).

    Shortcut weights may be strictly tighter than the per-node algorithms'
    (they converge to ``min_t dist_{G(t)}``, bounded below by ``dist_G``);
    all Theorem 3.1 guarantees hold unchanged.

    The leaf APSPs run on ``executor``; the rounds run in the calling
    process on every executor, so every executor does the same rounds and
    charges the same ledger.  A round is read-modify-write on one weight
    vector: each node's square sees the improvements scattered by the
    nodes before it, so it converges in no more rounds than squaring all
    nodes in parallel against the round's starting weights.
    """
    with run_with_arena(executor) as (exe, arena):
        table = SharedEdgeTable(graph, tree, semiring)
        # Leaves: exact APSP absorbed once (their boundary blocks seed the
        # table).
        leaf_results: dict[int, NodeDistances] = {}
        leaf_diameters: dict[int, int] = {}
        leaf_payloads, leaf_blocks = [], {}
        for t in tree.leaves():
            payload, mapping, out_view = _leaf_payload(graph, t, semiring, arena)
            leaf_payloads.append(payload)
            leaf_blocks[t.idx] = (mapping, out_view)
        branches = []
        for out in exe.map(_leaf_worker, leaf_payloads):
            if out["neg_vertex"] >= 0 and semiring.name in ("min-plus", "hops"):
                raise NegativeCycleDetected(out["idx"], out["neg_vertex"])
            idx = out["idx"]
            vertices, matrix = leaf_blocks[idx]
            leaf_results[idx] = NodeDistances(node_idx=idx, vertices=vertices, matrix=matrix)
            leaf_diameters[idx] = out["leaf_diameter"]
            table.absorb_matrix(idx, vertices, matrix)
            b = Ledger()
            b.charge(out["work"], out["depth"], label="node")
            branches.append(b)
        ledger.merge_parallel(branches, label="shared-init-leaf")
        rounds = 2 * max(1, int(np.ceil(np.log2(max(2, graph.n))))) + 2 * tree.height
        for _ in range(rounds):
            if not table.square_round(ledger=ledger, kernel=kernel) and early_stop:
                break
        results: dict[int, NodeDistances] = dict(leaf_results)
        for t in tree.nodes:
            if t.is_leaf:
                continue
            vh, matrix = table.node_matrix(t.idx)
            diag = np.einsum("ii->i", matrix) if vh.size else np.empty(0)
            if vh.size:
                bad = semiring.improves(
                    diag, np.full(diag.shape[0], semiring.one, dtype=semiring.dtype)
                )
                if bad.any() and raise_on_negative_cycle and semiring.name in ("min-plus", "hops"):
                    raise NegativeCycleDetected(t.idx, int(vh[int(np.argmax(bad))]))
            results[t.idx] = NodeDistances(node_idx=t.idx, vertices=vh, matrix=matrix)
        if keep_node_distances:
            # Leaf matrices are arena blocks; survivors own their memory.
            for idx in leaf_results:
                results[idx].matrix = np.array(results[idx].matrix, copy=True)
        return assemble_augmentation(
            graph,
            tree,
            results,
            leaf_diameters,
            semiring,
            method="doubling_shared",
            keep_node_distances=keep_node_distances,
            ledger=ledger,
        )
