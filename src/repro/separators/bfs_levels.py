"""BFS level structures on the undirected skeleton — shared by the planar
separator engines (Lipton–Tarjan's first phase is a BFS level argument)."""

from __future__ import annotations

import numpy as np

from ..core.digraph import WeightedDigraph, component_labels

__all__ = ["bfs_levels", "largest_component"]


def largest_component(g: WeightedDigraph) -> np.ndarray:
    """Vertex ids of the largest undirected component."""
    ncomp, labels = component_labels(g.n, g.src, g.dst)
    if ncomp <= 1:
        return np.arange(g.n)
    counts = np.bincount(labels)
    return np.nonzero(labels == int(np.argmax(counts)))[0]


def bfs_levels(g: WeightedDigraph, root: int) -> tuple[np.ndarray, np.ndarray]:
    """``(level, parent)`` of a BFS over the undirected skeleton from
    ``root``; unreached vertices get level −1 / parent −1."""
    skel = g.skeleton
    indptr, indices = skel.indptr, skel.indices
    level = np.full(g.n, -1, dtype=np.int64)
    parent = np.full(g.n, -1, dtype=np.int64)
    level[root] = 0
    frontier = np.array([root], dtype=np.int64)
    d = 0
    while frontier.size:
        d += 1
        # Gather all neighbors of the frontier at once.
        chunks = [indices[indptr[u] : indptr[u + 1]] for u in frontier.tolist()]
        owners = [np.full(c.shape[0], u, dtype=np.int64) for u, c in zip(frontier.tolist(), chunks)]
        if not chunks:
            break
        nbrs = np.concatenate(chunks)
        own = np.concatenate(owners)
        fresh = level[nbrs] < 0
        nbrs, own = nbrs[fresh], own[fresh]
        # First writer wins for parents; duplicates collapse via unique.
        uniq, first = np.unique(nbrs, return_index=True)
        level[uniq] = d
        parent[uniq] = own[first]
        frontier = uniq
    return level, parent
