"""Algorithm 4.3 — simultaneous path doubling on all tree nodes (paper §4.2).

Instead of finishing each tree level before starting its parent (Algorithm
4.1), every node ``t`` maintains a dense matrix ``W_t`` over
``V_H(t) = S(t) ∪ B(t)`` and all nodes advance together:

* initialization: leaves get exact ``dist_{G(t)}`` (an O(1) APSP); internal
  nodes get the one-hop weights of original edges inside ``V_H(t)²``;
* each round applies one min-plus squaring ``W_t ← W_t ⊕ W_t⊗W_t`` to every
  node in parallel, then ⊕-merges each child's matrix into its parent on the
  shared vertex pairs;
* after ``2⌈log₂ n⌉ + 2·d_G`` rounds every entry equals ``dist_{G(t)}``
  (Proposition 4.5 — the pairing-phase induction).

This trades a factor-O(log n) of work for a factor-O(d_G) less parallel
time than Algorithm 4.1 (Table 1's two preprocessing rows).  We stop early
when a full round changes nothing, which the monotone fixpoint argument
makes safe and which is the common case well before the worst-case round
count.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..kernels.minplus import semiring_matmul
from ..pram.machine import NULL_LEDGER, Ledger
from ..pram.executor import run_with_arena
from .augment import (
    Augmentation,
    NegativeCycleDetected,
    NodeDistances,
    assemble_augmentation,
)
from .digraph import WeightedDigraph
from .leaves_up import _check_diagonal, _leaf_payload, _leaf_worker
from .semiring import MIN_PLUS, SEMIRINGS, Semiring
from .septree import SeparatorTree

__all__ = ["augment_doubling"]


def _square_worker(payload: dict[str, Any]) -> dict[str, Any]:
    """One doubling step on one node's matrix (module level for pickling).

    The matrix is an arena block owned solely by this node: the squared
    result is written back through it and the reply carries only scalars.
    """
    semiring = SEMIRINGS[payload["semiring"]]
    ledger = Ledger()
    w = payload["matrix"]
    prod = semiring_matmul(w, w, semiring, ledger=ledger, kernel=payload.get("kernel"))
    new = semiring.add(w, prod)
    changed = bool(semiring.improves(new, w).any())
    w[...] = new
    return {
        "idx": payload["idx"],
        "changed": changed,
        "work": ledger.work,
        "depth": ledger.depth,
    }


def augment_doubling(
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
    """Compute the augmentation with Algorithm 4.3.

    ``kernel`` selects the min-plus matmul implementation for the squaring
    rounds (see :mod:`repro.kernels.dispatch`); the ``pruned`` kernel skips
    the all-+inf panels that dominate early rounds.

    Every node matrix is a block of the executor's arena: rounds send
    (idx, handle) pairs, workers square their block in place, and the
    orchestrator's child→parent merges mutate the same memory — on ``shm``
    matrices cross the process boundary zero times.
    """
    matrices: dict[int, np.ndarray] = {}
    mat_refs: dict[int, Any] = {}
    vh_of: dict[int, np.ndarray] = {}
    leaf_results: dict[int, NodeDistances] = {}
    leaf_diameters: dict[int, int] = {}
    with run_with_arena(executor) as (exe, arena):
        _initialize(
            graph, tree, semiring, exe, arena, ledger,
            matrices, mat_refs, vh_of, leaf_results, leaf_diameters,
        )
        rounds = 2 * max(1, int(np.ceil(np.log2(max(2, graph.n))))) + 2 * tree.height
        payloads = [
            {
                "idx": t.idx,
                "semiring": semiring.name,
                "kernel": kernel,
                "matrix": mat_refs[t.idx],
            }
            for t in tree.nodes
            if not t.is_leaf
        ]
        for _ in range(rounds):
            outs = exe.map(_square_worker, payloads)
            changed = False
            branches = []
            for out in outs:
                changed |= out["changed"]
                b = Ledger()
                b.charge(out["work"], out["depth"], label="node")
                branches.append(b)
            ledger.merge_parallel(branches, label="doubling-square")
            # Child → parent merge on the shared vertex pairs (step ii(2)).
            merge_changed = _merge_children(tree, semiring, matrices, vh_of, leaf_results, ledger)
            changed |= merge_changed
            if early_stop and not changed:
                break
        results: dict[int, NodeDistances] = dict(leaf_results)
        for t in tree.nodes:
            if t.is_leaf:
                continue
            m = matrices[t.idx]
            bad = _check_diagonal(m, vh_of[t.idx], semiring)
            if bad >= 0 and raise_on_negative_cycle and semiring.name in ("min-plus", "hops"):
                raise NegativeCycleDetected(t.idx, bad)
            results[t.idx] = NodeDistances(node_idx=t.idx, vertices=vh_of[t.idx], matrix=m)
        if keep_node_distances:
            # Surviving matrices own their memory, not the arena's.
            for nd in results.values():
                nd.matrix = np.array(nd.matrix, copy=True)
        return assemble_augmentation(
            graph,
            tree,
            results,
            leaf_diameters,
            semiring,
            method="doubling",
            keep_node_distances=keep_node_distances,
            ledger=ledger,
        )


def _initialize(
    graph: WeightedDigraph,
    tree: SeparatorTree,
    semiring: Semiring,
    exe,
    arena,
    ledger: Ledger,
    matrices: dict[int, np.ndarray],
    mat_refs: dict[int, Any],
    vh_of: dict[int, np.ndarray],
    leaf_results: dict[int, NodeDistances],
    leaf_diameters: dict[int, int],
) -> None:
    """Step (i): leaf APSPs (in parallel) and internal one-hop matrices,
    every matrix an arena block (internal ones filled in place here)."""
    leaf_payloads = []
    leaf_blocks: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for t in tree.nodes:
        if t.is_leaf:
            payload, mapping, out_view = _leaf_payload(graph, t, semiring, arena)
            leaf_payloads.append(payload)
            leaf_blocks[t.idx] = (mapping, out_view)
        else:
            vh = np.union1d(t.separator, t.boundary)
            vh_of[t.idx] = vh
            h = vh.shape[0]
            ref, w = arena.alloc((h, h), semiring.dtype)
            mat_refs[t.idx] = ref
            w[...] = semiring.zero
            np.fill_diagonal(w, semiring.one)
            # One-hop weights of original edges with both endpoints in V_H(t).
            member = np.zeros(graph.n, dtype=bool)
            member[vh] = True
            mask = member[graph.src] & member[graph.dst]
            if mask.any():
                local = np.full(graph.n, -1, dtype=np.int64)
                local[vh] = np.arange(h)
                semiring.scatter_min(
                    w,
                    (local[graph.src[mask]], local[graph.dst[mask]]),
                    graph.weight[mask].astype(semiring.dtype),
                )
            matrices[t.idx] = w
    outs = exe.map(_leaf_worker, leaf_payloads)
    branches = []
    for out in outs:
        if out["neg_vertex"] >= 0 and semiring.name in ("min-plus", "hops"):
            raise NegativeCycleDetected(out["idx"], out["neg_vertex"])
        idx = out["idx"]
        vertices, matrix = leaf_blocks[idx]
        leaf_results[idx] = NodeDistances(node_idx=idx, vertices=vertices, matrix=matrix)
        leaf_diameters[idx] = out["leaf_diameter"]
        b = Ledger()
        b.charge(out["work"], out["depth"], label="node")
        branches.append(b)
    ledger.merge_parallel(branches, label="doubling-init-leaves")


def _merge_children(
    tree: SeparatorTree,
    semiring: Semiring,
    matrices: dict[int, np.ndarray],
    vh_of: dict[int, np.ndarray],
    leaf_results: dict[int, NodeDistances],
    ledger: Ledger,
) -> bool:
    changed = False
    work = 0.0
    for t in tree.nodes:
        if t.is_leaf:
            continue
        vh = vh_of[t.idx]
        w = matrices[t.idx]
        for c in t.children:
            child = tree.nodes[c]
            if child.is_leaf:
                nd = leaf_results[c]
                child_vertices, child_matrix = nd.vertices, nd.matrix
            else:
                child_vertices, child_matrix = vh_of[c], matrices[c]
            common, pos_vh, pos_child = np.intersect1d(
                vh, child_vertices, assume_unique=True, return_indices=True
            )
            if common.size == 0:
                continue
            block = child_matrix[np.ix_(pos_child, pos_child)]
            tgt = w[np.ix_(pos_vh, pos_vh)]
            merged = semiring.add(tgt, block)
            if not changed and semiring.improves(merged, tgt).any():
                changed = True
            w[np.ix_(pos_vh, pos_vh)] = merged
            work += float(common.size) ** 2
    ledger.charge(work=max(1.0, work), depth=1.0, label="doubling-merge")
    return changed
