"""Algorithm 4.1 — computing E⁺ from the leaves up (paper §4.1).

The tree is processed one level at a time, deepest first; all nodes of a
level are independent and run as one parallel phase (on the chosen
executor, and as a fork-join region on the PRAM ledger).

Per leaf: APSP of the O(1)-size leaf subgraph (Floyd–Warshall), plus the
leaf's exact minimum-weight diameter (the ℓ of Theorem 3.1).

Per internal node ``t`` with children ``t₁, t₂`` (paper Algorithm 4.1):

i.   ``H_S``: complete graph on ``S(t)`` weighted with the ⊕ of the two
     children's distances (every separator vertex is a boundary vertex of
     both children, so those distances are available).
ii.  APSP on ``H_S`` → exact ``dist_{G(t)}`` on ``S×S`` (Prop 4.2).
iii. The tripartite graph ``H`` on ``B(t) ∪ S(t)`` with child distances as
     ``B↔S`` edge weights and ``dist_{H_S}`` as ``S×S`` weights.
iv.  3-limited distances in ``H`` — realized as the dense triple product
     ``Direct[:,S] ⊗ D_S ⊗ Direct[S,:]`` (one row/column per boundary
     vertex, exactly the paper's per-vertex 3-phase Bellman–Ford).
v.   ⊕ with the direct child distances → exact ``dist_{G(t)}`` on ``B×B``.

As a byproduct the same products make *every* pair of ``B(t) ∪ S(t)`` exact
(the first/last-separator-hit decomposition in the proof of Prop 4.2 covers
the cross pairs too), which the planar pipeline and path reconstruction
reuse; Algorithm 4.3 certifies the same matrix, which test I3 exploits.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..kernels.bellman_ford import min_weight_diameter
from ..kernels.floyd_warshall import floyd_warshall, floyd_warshall_with_hops
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
from .semiring import MIN_PLUS, SEMIRINGS, Semiring
from .septree import SeparatorTree

__all__ = ["augment_leaves_up", "dense_semiring_weights"]


def dense_semiring_weights(g: WeightedDigraph, semiring: Semiring) -> np.ndarray:
    """Dense one-hop matrix of ``g`` in the given semiring: 1̄ diagonal, ⊕ of
    parallel edges, 0̄ where no edge."""
    w = semiring.empty_matrix(g.n, g.n)
    np.fill_diagonal(w, semiring.one)
    if g.m:
        semiring.scatter_min(w, (g.src, g.dst), g.weight.astype(semiring.dtype))
    return w


def _check_diagonal(matrix: np.ndarray, vertices: np.ndarray, semiring: Semiring) -> int:
    """Return a global vertex id on a negative cycle (diagonal strictly
    better than 1̄), or -1."""
    diag = np.einsum("ii->i", matrix)
    bad = semiring.improves(diag, np.full(diag.shape[0], semiring.one, dtype=semiring.dtype))
    if bad.any():
        return int(vertices[int(np.argmax(bad))])
    return -1


# ------------------------------------------------------------------ #
# Per-node workers (module level so the shm backend can pickle them)
#
# Payloads carry the handles of the executor's arena (see
# repro.pram.executor): arrays in-process, ArrayRef descriptors that the
# ShmExecutor resolves to zero-copy views on shm.  Every worker writes its
# result matrix into the pre-allocated ``out`` block and returns scalars.
# ------------------------------------------------------------------ #


def _leaf_payload(
    graph: WeightedDigraph, t, semiring: Semiring, arena
) -> tuple[dict[str, Any], np.ndarray, np.ndarray]:
    """Build one leaf task payload; returns ``(payload, vertices, out_view)``.

    The subgraph arrays are published to ``arena`` and an output block for
    the APSP matrix is allocated there (``out_view`` is the orchestrator's
    view of it).
    """
    sub, mapping = graph.induced_subgraph(t.vertices)
    out_ref, out_view = arena.alloc((mapping.shape[0], mapping.shape[0]), semiring.dtype)
    payload: dict[str, Any] = {
        "kind": "leaf",
        "idx": t.idx,
        "semiring": semiring.name,
        "vertices": arena.publish(mapping),
        "n_local": sub.n,
        "sub_src": arena.publish(sub.src),
        "sub_dst": arena.publish(sub.dst),
        "sub_weight": arena.publish(sub.weight),
        "out": out_ref,
    }
    return payload, mapping, out_view


def _leaf_worker(payload: dict[str, Any]) -> dict[str, Any]:
    semiring = SEMIRINGS[payload["semiring"]]
    sub = WeightedDigraph(
        payload["n_local"], payload["sub_src"], payload["sub_dst"], payload["sub_weight"]
    )
    ledger = Ledger()
    dense = dense_semiring_weights(sub, semiring)
    if semiring.name in ("min-plus", "hops"):
        # One pass computes APSP *and* the leaf's min-weight diameter (the
        # ℓ of Theorem 3.1) — replacing a per-leaf Bellman–Ford fixpoint
        # loop that dominated the preprocessing profile.
        apsp, hop_counts = floyd_warshall_with_hops(dense)
        from ..pram.machine import log2ceil

        ledger.charge(work=float(sub.n) ** 3, depth=log2ceil(sub.n) ** 2, label="apsp")
        bad = _check_diagonal(apsp, payload["vertices"], semiring)
        finite = np.isfinite(hop_counts)
        diam = 0 if bad >= 0 else int(hop_counts[finite].max(initial=0.0))
    else:
        apsp = floyd_warshall(dense, semiring, ledger=ledger, copy=False)
        bad = _check_diagonal(apsp, payload["vertices"], semiring)
        diam = 0
        if bad < 0 and sub.n > 1:
            diam = min_weight_diameter(sub, semiring=semiring)
    payload["out"][...] = apsp
    return {
        "idx": payload["idx"],
        "leaf_diameter": diam,
        "neg_vertex": bad,
        "work": ledger.work,
        "depth": ledger.depth,
    }


def _internal_worker(payload: dict[str, Any]) -> dict[str, Any]:
    semiring = SEMIRINGS[payload["semiring"]]
    kernel = payload.get("kernel")
    ledger = Ledger()
    vh: np.ndarray = payload["vh"]
    h = vh.shape[0]
    direct = semiring.empty_matrix(h, h)
    np.fill_diagonal(direct, semiring.one)
    # ⊕-combine each child's distance matrix into the shared positions.
    # A child is (boundary vertices, their positions in the child's block,
    # the child's full block): only the boundary rows/cols are certified,
    # and the restriction happens here, so the orchestrator never copies
    # child matrices into payloads.
    for child_vertices, pos, full in payload["children"]:
        common, pos_vh, pos_child = np.intersect1d(
            vh, child_vertices, assume_unique=True, return_indices=True
        )
        if common.size == 0:
            continue
        sel = pos[pos_child]
        block = full[np.ix_(sel, sel)]
        tgt = direct[np.ix_(pos_vh, pos_vh)]
        direct[np.ix_(pos_vh, pos_vh)] = semiring.add(tgt, block)
    pos_s: np.ndarray = payload["pos_s"]
    if pos_s.size == 0:
        # No separator (degenerate); the direct matrix is already exact.
        matrix = direct
    else:
        w_s = direct[np.ix_(pos_s, pos_s)]
        d_s = floyd_warshall(w_s, semiring, ledger=ledger, copy=True)
        left = semiring_matmul(direct[:, pos_s], d_s, semiring, ledger=ledger, kernel=kernel)
        right = semiring_matmul(d_s, direct[pos_s, :], semiring, ledger=ledger, kernel=kernel)
        three_hop = semiring_matmul(left, direct[pos_s, :], semiring, ledger=ledger, kernel=kernel)
        matrix = semiring.add(direct, three_hop)
        matrix[:, pos_s] = semiring.add(matrix[:, pos_s], left)
        matrix[pos_s, :] = semiring.add(matrix[pos_s, :], right)
    bad = _check_diagonal(matrix, vh, semiring)
    payload["out"][...] = matrix
    return {
        "idx": payload["idx"],
        "neg_vertex": bad,
        "work": ledger.work,
        "depth": ledger.depth,
    }


# ------------------------------------------------------------------ #
# Orchestration
# ------------------------------------------------------------------ #


def augment_leaves_up(
    graph: WeightedDigraph,
    tree: SeparatorTree,
    semiring: Semiring = MIN_PLUS,
    *,
    executor="serial",
    ledger: Ledger = NULL_LEDGER,
    keep_node_distances: bool = True,
    raise_on_negative_cycle: bool = True,
    kernel: str | None = None,
) -> Augmentation:
    """Compute the augmentation with Algorithm 4.1 (one parallel phase per
    tree level, deepest first).

    ``kernel`` selects the min-plus matmul implementation used by the
    per-node 3-hop products (see :mod:`repro.kernels.dispatch`); all
    choices are bit-identical.

    The per-node matrices live in blocks of the executor's arena: workers
    write their output blocks in place, and internal nodes read their
    children's blocks directly (from shared pages on ``shm``) — no matrix
    is ever pickled.
    """
    if semiring.name not in SEMIRINGS:
        raise ValueError("semiring must be one of the registered instances")
    results: dict[int, NodeDistances] = {}
    leaf_diameters: dict[int, int] = {}
    #: node idx -> arena handle of its matrix block.
    mat_refs: dict[int, Any] = {}
    with run_with_arena(executor) as (exe, arena):
        for level_nodes in tree.levels_desc():
            payloads = []
            blocks: dict[int, tuple[np.ndarray, np.ndarray]] = {}
            for t in level_nodes:
                if t.is_leaf:
                    payload, vertices, out_view = _leaf_payload(graph, t, semiring, arena)
                else:
                    vertices = np.union1d(t.separator, t.boundary)
                    pos_s = np.searchsorted(vertices, t.separator)
                    children = []
                    for c in t.children:
                        b = tree.nodes[c].boundary
                        idx = results[c].index_of(b)
                        children.append((arena.publish(b), arena.publish(idx), mat_refs[c]))
                    h = vertices.shape[0]
                    out_ref, out_view = arena.alloc((h, h), semiring.dtype)
                    payload = {
                        "kind": "internal",
                        "idx": t.idx,
                        "semiring": semiring.name,
                        "kernel": kernel,
                        "vh": arena.publish(vertices),
                        "pos_s": arena.publish(pos_s),
                        "children": children,
                        "out": out_ref,
                    }
                mat_refs[t.idx] = payload["out"]
                blocks[t.idx] = (vertices, out_view)
                payloads.append(payload)
            outs = exe.map(_dispatch_worker, payloads)
            branch_ledgers = []
            for out in outs:
                if out["neg_vertex"] >= 0:
                    if raise_on_negative_cycle and semiring.name in ("min-plus", "hops"):
                        raise NegativeCycleDetected(out["idx"], out["neg_vertex"])
                idx = out["idx"]
                vertices, matrix = blocks[idx]
                results[idx] = NodeDistances(node_idx=idx, vertices=vertices, matrix=matrix)
                if "leaf_diameter" in out:
                    leaf_diameters[idx] = out["leaf_diameter"]
                b = Ledger()
                b.charge(out["work"], out["depth"], label="node")
                branch_ledgers.append(b)
            ledger.merge_parallel(branch_ledgers, label="leaves-up-level")
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
            method="leaves_up",
            keep_node_distances=keep_node_distances,
            ledger=ledger,
        )


def _dispatch_worker(payload: dict[str, Any]) -> dict[str, Any]:
    if payload["kind"] == "leaf":
        return _leaf_worker(payload)
    return _internal_worker(payload)
