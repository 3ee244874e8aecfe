"""Separator decomposition trees (paper §2.3).

A separator decomposition tree ``T_G`` of (the undirected skeleton of) a
graph ``G`` is a rooted binary tree whose nodes ``t`` carry two vertex sets:
``V(t)`` (the subgraph at the node; the root carries all of ``V``) and a
separator ``S(t) ⊆ V(t)`` of the induced subgraph ``G(t)``.  The children of
``t`` carry the two sides of the partition induced by ``S(t)``.  Each node
also has a *boundary* ``B(t)``: ``B(root) = ∅`` and
``B(t) = (S(parent) ∪ B(parent)) ∩ V(t)`` — the ancestors' separator
vertices still present in ``V(t)`` (Proposition 2.1 i), which separate
``V(t) ∖ B(t)`` from the rest of ``G`` (Proposition 2.1 ii).

Following the paper's terminology, graph vertices are "vertices" and tree
vertices are "nodes".

Child inclusion rule
--------------------
The paper defines ``V(t_i) = V_i ∪ (S(t) ∩ N(V_i))``; Algorithm 4.1's
correctness argument, however, uses ``S(t) ⊆ B(t₁) ∩ B(t₂)``.  We therefore
default to including *all* of ``S(t)`` in both children (the standard nested
dissection convention, which makes that precondition unconditional) and keep
the neighborhood-restricted rule as an option for the A1 ablation — with a
safety net that re-adds any separator vertex that would otherwise be missing
from both children.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .digraph import WeightedDigraph

__all__ = [
    "SepTreeNode",
    "SeparatorTree",
    "SeparatorFn",
    "build_separator_tree",
    "DecompositionError",
    "split_components",
]

#: A separator oracle: given the induced (sub)graph and the global ids of its
#: vertices, return *local* indices (into the subgraph) of a separator.
SeparatorFn = Callable[[WeightedDigraph, np.ndarray], np.ndarray]


class DecompositionError(ValueError):
    """Raised when a separator oracle fails to make progress or an invariant
    of the decomposition is violated."""


class InseparableSubgraph(Exception):
    """Signal from a separator oracle: the subgraph has *no* separator (its
    skeleton is complete — removing any vertex subset leaves the rest
    connected).  The builder then makes the subgraph a leaf even though it
    exceeds ``leaf_size``; the theory degrades gracefully (the leaf-diameter
    term ℓ absorbs it), which is the honest behavior of the paper's
    algorithm outside its separator-friendly families."""


@dataclass
class SepTreeNode:
    """One node ``t`` of the tree with its ``V(t)``, ``S(t)``, ``B(t)``
    labels (sorted global vertex ids).  Leaves have an empty separator."""

    idx: int
    level: int
    parent: int
    vertices: np.ndarray
    separator: np.ndarray
    boundary: np.ndarray
    children: tuple[int, ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def size(self) -> int:
        return int(self.vertices.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SepTreeNode(idx={self.idx}, level={self.level}, |V|={self.size}, "
            f"|S|={self.separator.shape[0]}, |B|={self.boundary.shape[0]})"
        )


class SeparatorTree:
    """A fully-labeled separator decomposition tree.

    The constructor derives the paper's ``level: V → {0..d_G}`` and
    ``node: V → T_G`` functions (§3.1): ``level(v)`` is the minimum level of
    a node whose separator contains ``v`` (−1 encodes *undefined*, i.e. the
    vertex never appears in a separator), and ``node(v)`` is the unique node
    realizing the minimum, or the leaf containing ``v`` when undefined.
    """

    def __init__(self, nodes: Sequence[SepTreeNode], n: int) -> None:
        if not nodes or nodes[0].parent != -1:
            raise DecompositionError("nodes[0] must be the root (parent == -1)")
        self.nodes: list[SepTreeNode] = list(nodes)
        self.n = int(n)
        self.height: int = max(t.level for t in self.nodes)
        #: Stats record left by the flow refinement pass (None = unrefined).
        self.refinement: dict | None = None
        #: Engine-selection record left by multi-engine builders
        #: (``quality.best_first_pass``, ``api.build`` auto-mode gating):
        #: per-candidate scores plus why this tree won (None = direct build).
        self.selection: dict | None = None
        self.vertex_level = np.full(n, -1, dtype=np.int64)
        self.vertex_node = np.full(n, -1, dtype=np.int64)
        # Scan top-down (nodes are created parent-before-child) so the first
        # separator containing a vertex wins — that is the min level.
        for t in sorted(self.nodes, key=lambda t: t.level):
            s = t.separator
            fresh = self.vertex_level[s] < 0
            self.vertex_level[s[fresh]] = t.level
            self.vertex_node[s[fresh]] = t.idx
        for t in self.nodes:
            if t.is_leaf:
                undef = t.vertices[self.vertex_level[t.vertices] < 0]
                self.vertex_node[undef] = t.idx

    # -------------------------------------------------------------- #
    # Traversal helpers
    # -------------------------------------------------------------- #

    @property
    def root(self) -> SepTreeNode:
        return self.nodes[0]

    def leaves(self) -> list[SepTreeNode]:
        """All leaf nodes."""
        return [t for t in self.nodes if t.is_leaf]

    def levels_desc(self) -> Iterator[list[SepTreeNode]]:
        """Node groups by level, deepest first — the bottom-up processing
        order of Algorithm 4.1 (all nodes of a level are independent, hence a
        parallel phase)."""
        by_level: dict[int, list[SepTreeNode]] = {}
        for t in self.nodes:
            by_level.setdefault(t.level, []).append(t)
        for lvl in sorted(by_level, reverse=True):
            yield by_level[lvl]

    def max_leaf_size(self) -> int:
        """Largest |V(t)| over leaves (the paper's O(1) constant)."""
        return max(t.size for t in self.leaves())

    def ell_bound(self) -> int:
        """Upper bound on ℓ (max min-weight diameter over leaf subgraphs):
        a leaf with ``k`` vertices has diameter ≤ ``k − 1`` absent negative
        cycles."""
        return max(0, self.max_leaf_size() - 1)

    def separator_sizes(self) -> np.ndarray:
        """|S(t)| of every internal node."""
        return np.array([t.separator.shape[0] for t in self.nodes if not t.is_leaf], dtype=np.int64)

    def total_label_size(self) -> int:
        """Σ_t |V(t)| — the storage the decomposition itself occupies."""
        return sum(t.size for t in self.nodes)

    def separator_stats(self) -> dict:
        """JSON-safe separator-quality summary: per-level |S| histogram,
        achieved balance α (worst and mean child/parent vertex ratio over
        internal nodes), separator totals, and — when the tree went through
        the flow refiner — the refinement delta record."""
        per_level: dict[str, dict] = {}
        ratios: list[float] = []
        for t in self.nodes:
            if t.is_leaf:
                continue
            lvl = per_level.setdefault(
                str(t.level), {"nodes": 0, "sep_total": 0, "sep_max": 0}
            )
            lvl["nodes"] += 1
            s = int(t.separator.shape[0])
            lvl["sep_total"] += s
            lvl["sep_max"] = max(lvl["sep_max"], s)
            for c in t.children:
                ratios.append(self.nodes[c].size / t.size)
        sizes = self.separator_sizes()
        return {
            "levels": per_level,
            "sep_total": int(sizes.sum()) if sizes.size else 0,
            "sep_max": int(sizes.max()) if sizes.size else 0,
            "internal_nodes": int(sizes.shape[0]),
            "balance_worst": float(max(ratios)) if ratios else 0.0,
            "balance_mean": float(np.mean(ratios)) if ratios else 0.0,
            "refinement": self.refinement,
            "selection": self.selection,
        }

    # -------------------------------------------------------------- #
    # Validation (Proposition 2.1 and construction invariants)
    # -------------------------------------------------------------- #

    def validate(self, g: WeightedDigraph, *, strict: bool = True) -> list[str]:
        """Check structural invariants against the graph; returns the list
        of violations (and raises on any, unless ``strict=False``)."""
        problems: list[str] = []
        skel = g.skeleton
        root = self.root
        if root.size != self.n or not np.array_equal(root.vertices, np.arange(self.n)):
            problems.append("root must carry every vertex exactly once")
        for t in self.nodes:
            in_v = np.zeros(self.n, dtype=bool)
            in_v[t.vertices] = True
            if t.separator.size and not in_v[t.separator].all():
                problems.append(f"node {t.idx}: S(t) ⊄ V(t)")
            if t.boundary.size and not in_v[t.boundary].all():
                problems.append(f"node {t.idx}: B(t) ⊄ V(t)")
            if t.parent >= 0:
                p = self.nodes[t.parent]
                expected = np.intersect1d(
                    np.union1d(p.separator, p.boundary), t.vertices, assume_unique=False
                )
                if not np.array_equal(expected, t.boundary):
                    problems.append(f"node {t.idx}: B(t) != (S(p) ∪ B(p)) ∩ V(t)")
            if not t.is_leaf:
                kids = [self.nodes[c] for c in t.children]
                covered = np.union1d(kids[0].vertices, kids[1].vertices) if len(kids) == 2 else kids[0].vertices
                if not np.array_equal(np.union1d(covered, t.separator), t.vertices):
                    problems.append(f"node {t.idx}: children ∪ S(t) != V(t)")
                for k in kids:
                    if k.size >= t.size:
                        problems.append(f"node {t.idx}: child {k.idx} did not shrink")
                # S(t) must separate the child interiors inside G(t).
                if len(kids) == 2:
                    side = np.zeros(self.n, dtype=np.int8)
                    interior0 = np.setdiff1d(kids[0].vertices, t.separator, assume_unique=False)
                    interior1 = np.setdiff1d(kids[1].vertices, t.separator, assume_unique=False)
                    side[interior0] = 1
                    side[interior1] = 2
                    if np.intersect1d(interior0, interior1).size:
                        problems.append(f"node {t.idx}: child interiors overlap")
                    u, v = _skeleton_edges(skel)
                    cross = (side[u] == 1) & (side[v] == 2)
                    if cross.any():
                        problems.append(f"node {t.idx}: S(t) does not separate the children")
            # Prop 2.1(ii): B(t) separates V(t) ∖ B(t) from V ∖ V(t) in G.
            inside = np.zeros(self.n, dtype=bool)
            inside[t.vertices] = True
            inside[t.boundary] = False
            outside = ~np.zeros(self.n, dtype=bool)
            outside[t.vertices] = False
            u, v = _skeleton_edges(skel)
            leak = (inside[u] & outside[v]) | (outside[u] & inside[v])
            if leak.any():
                problems.append(f"node {t.idx}: B(t) does not shield V(t) from the rest of G")
        if problems and strict:
            raise DecompositionError("; ".join(problems))
        return problems

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SeparatorTree(n={self.n}, nodes={len(self.nodes)}, height={self.height}, "
            f"max_leaf={self.max_leaf_size()})"
        )


def _skeleton_edges(skel) -> tuple[np.ndarray, np.ndarray]:
    """Skeleton CSR back to (u, v) arrays (each undirected edge appears in
    both orientations, which is fine for separation checks)."""
    indptr, indices = skel.indptr, skel.indices
    u = np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))
    return u, indices


# ------------------------------------------------------------------ #
# Construction
# ------------------------------------------------------------------ #


def split_components(
    sub: WeightedDigraph, local_separator: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Partition the non-separator vertices of ``sub`` into two groups
    ``(V₁, V₂)`` of local indices, each a union of connected components of
    ``sub ∖ S`` balanced greedily by size (largest component first).

    Raises :class:`DecompositionError` when ``S`` leaves a single component
    covering everything (the oracle made no progress).
    """
    comps = sub.components_without(local_separator)
    rest = comps.rest
    if rest.size == 0:
        return rest.copy(), rest.copy()
    if comps.ids.shape[0] == 1 and local_separator.size == 0:
        raise DecompositionError("empty separator on a connected subgraph")
    side = np.zeros(comps.ids.shape[0], dtype=np.int8)
    load = [0, 0]
    for ci in np.argsort(comps.counts)[::-1].tolist():
        pick = 0 if load[0] <= load[1] else 1
        side[ci] = pick
        load[pick] += int(comps.counts[ci])
    which = side[np.searchsorted(comps.ids, comps.rest_labels)]
    return rest[which == 0], rest[which == 1]


def build_separator_tree(
    g: WeightedDigraph,
    separator_fn: SeparatorFn,
    *,
    leaf_size: int = 8,
    full_separator_inclusion: bool = True,
    alpha: float = 0.95,
) -> SeparatorTree:
    """Recursively decompose ``g`` with ``separator_fn``.

    Parameters
    ----------
    leaf_size:
        Subgraphs of at most this many vertices become leaves (the paper
        assumes O(1)-size leaves; this is the constant).
    full_separator_inclusion:
        Children get all of ``S(t)`` (default; see module docstring) versus
        only ``S(t) ∩ N(V_i)`` (paper's literal rule, ablation A1).
    alpha:
        Sanity bound: each child must satisfy ``|V(child)| ≤ α·|V(t)| +
        |S(t)|``; a violation means the oracle is not producing balanced
        separators and raises.
    """
    if leaf_size < 1:
        raise ValueError("leaf_size must be >= 1")
    nodes: list[SepTreeNode] = []
    # Work stack of (parent_idx, level, global_vertices, boundary).
    stack: list[tuple[int, int, np.ndarray, np.ndarray]] = [
        (-1, 0, np.arange(g.n, dtype=np.int64), np.empty(0, dtype=np.int64))
    ]
    while stack:
        parent, level, verts, boundary = stack.pop()
        idx = len(nodes)
        if parent >= 0:
            p = nodes[parent]
            p.children = p.children + (idx,)
        if verts.shape[0] <= leaf_size:
            nodes.append(
                SepTreeNode(
                    idx=idx,
                    level=level,
                    parent=parent,
                    vertices=verts,
                    separator=np.empty(0, dtype=np.int64),
                    boundary=boundary,
                )
            )
            continue
        sub, mapping = g.induced_subgraph(verts)
        try:
            local_sep = np.unique(np.asarray(separator_fn(sub, mapping), dtype=np.int64))
        except InseparableSubgraph:
            # No separator exists (complete skeleton): oversized leaf.
            nodes.append(
                SepTreeNode(
                    idx=idx,
                    level=level,
                    parent=parent,
                    vertices=verts,
                    separator=np.empty(0, dtype=np.int64),
                    boundary=boundary,
                )
            )
            continue
        if local_sep.size and (local_sep.min() < 0 or local_sep.max() >= sub.n):
            raise DecompositionError("separator oracle returned out-of-range local index")
        v1_local, v2_local = split_components(sub, local_sep)
        sep_global = mapping[local_sep]
        node = SepTreeNode(
            idx=idx,
            level=level,
            parent=parent,
            vertices=verts,
            separator=sep_global,
            boundary=boundary,
        )
        nodes.append(node)
        sides_local = [v1_local, v2_local]
        if full_separator_inclusion:
            attach = [local_sep, local_sep]
        else:
            attach = [_adjacent_separator(sub, local_sep, s) for s in sides_local]
            # Safety net: a separator vertex must land in at least one child,
            # or its distances would be lost to the parent's Algorithm 4.1.
            seen = np.union1d(attach[0], attach[1])
            orphans = np.setdiff1d(local_sep, seen, assume_unique=False)
            if orphans.size:
                attach = [np.union1d(attach[0], orphans), np.union1d(attach[1], orphans)]
        new_bound_pool = np.union1d(sep_global, boundary)
        for side_local, att in zip(sides_local, attach):
            child_verts = np.union1d(mapping[side_local], mapping[att])
            if child_verts.shape[0] >= verts.shape[0]:
                raise DecompositionError(
                    f"node {idx}: child of size {child_verts.shape[0]} does not shrink "
                    f"parent of size {verts.shape[0]} (bad separator oracle)"
                )
            if child_verts.shape[0] > alpha * verts.shape[0] + sep_global.shape[0]:
                raise DecompositionError(
                    f"node {idx}: unbalanced split ({child_verts.shape[0]} of {verts.shape[0]})"
                )
            child_boundary = np.intersect1d(new_bound_pool, child_verts, assume_unique=False)
            stack.append((idx, level + 1, child_verts, child_boundary))
    return SeparatorTree(nodes, g.n)


def _adjacent_separator(
    sub: WeightedDigraph, local_sep: np.ndarray, side: np.ndarray
) -> np.ndarray:
    """``S ∩ N(side)`` in local indices (paper's literal inclusion rule)."""
    in_side = np.zeros(sub.n, dtype=bool)
    in_side[side] = True
    in_sep = np.zeros(sub.n, dtype=bool)
    in_sep[local_sep] = True
    touched = np.zeros(sub.n, dtype=bool)
    hits = in_sep[sub.src] & in_side[sub.dst]
    touched[sub.src[hits]] = True
    hits = in_sep[sub.dst] & in_side[sub.src]
    touched[sub.dst[hits]] = True
    return np.nonzero(touched)[0]
