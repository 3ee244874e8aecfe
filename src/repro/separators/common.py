"""Shared machinery for separator oracles.

Every engine needs the same scaffolding:

* *component awareness* — a disconnected subgraph whose largest component is
  already balanced needs no separator at all (the empty set splits it);
  otherwise the engine should separate inside the largest component;
* *progress guarantee* — a set ``S`` only makes the recursion shrink when
  ``sub ∖ S`` has at least two connected components (otherwise one child
  equals the whole subgraph).  :func:`ensure_progress` verifies this and
  falls back to a neighborhood separator (``N(v)`` of a minimum-degree
  vertex isolates ``{v}`` from the rest) before giving up with a clear
  error — which is the *correct* outcome for graphs that admit no separator
  at all (e.g. cliques, per the paper's §1 definition).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.digraph import WeightedDigraph, component_labels
from ..core.septree import DecompositionError, InseparableSubgraph, SeparatorFn

__all__ = [
    "BALANCE",
    "rest_components",
    "has_two_sides",
    "neighborhood_separator",
    "ensure_progress",
    "component_aware",
]

#: Default balance target: no side above two thirds.
BALANCE = 2.0 / 3.0


def rest_components(sub: WeightedDigraph, sep_local: np.ndarray) -> tuple[int, int]:
    """``(number of components, largest component size)`` of ``sub ∖ S``."""
    comps = sub.components_without(sep_local)
    if comps.ids.size == 0:
        return 0, 0
    return int(comps.ids.shape[0]), int(comps.counts.max())


def has_two_sides(sub: WeightedDigraph, sep_local: np.ndarray) -> bool:
    """Whether removing ``S`` leaves ≥2 components (recursion progress)."""
    ncomp, _ = rest_components(sub, sep_local)
    return ncomp >= 2


def neighborhood_separator(sub: WeightedDigraph) -> np.ndarray:
    """``N(v)`` of a minimum-skeleton-degree vertex: isolates ``{v}`` from
    everything outside ``N[v]`` — the last-resort separator (very
    unbalanced, but always progresses when the graph is not complete)."""
    skel = sub.skeleton
    degrees = np.diff(skel.indptr)
    v = int(np.argmin(degrees))
    sep = np.unique(skel.neighbors(v))
    sep = sep[sep != v]
    if sep.shape[0] + 1 >= sub.n:
        # The min-degree closed neighborhood covers everything ⟺ the
        # skeleton is complete ⟺ no separator exists (paper §1 definition).
        raise InseparableSubgraph(sub.n)
    return sep


def ensure_progress(sub: WeightedDigraph, sep_local: np.ndarray) -> np.ndarray:
    """Return ``sep_local`` if it genuinely splits ``sub``, otherwise the
    neighborhood fallback (or raise when even that cannot progress)."""
    if sep_local.size and has_two_sides(sub, sep_local):
        return sep_local
    fallback = neighborhood_separator(sub)
    if has_two_sides(sub, fallback):
        return fallback
    raise DecompositionError(
        f"no progressing separator found for subgraph of size {sub.n}"
    )


def component_aware(core: Callable[[WeightedDigraph, np.ndarray], np.ndarray]) -> SeparatorFn:
    """Wrap a connected-case oracle with the disconnected-graph protocol:

    * largest component already ≤ BALANCE · n → empty separator;
    * otherwise run ``core`` on the largest component and lift its local
      indices back, then verify progress.
    """

    def fn(sub: WeightedDigraph, global_vertices: np.ndarray) -> np.ndarray:
        ncomp, labels = component_labels(sub.n, sub.src, sub.dst)
        counts = np.bincount(labels, minlength=ncomp)
        big = int(np.argmax(counts))
        if ncomp > 1 and counts[big] <= BALANCE * sub.n:
            return np.empty(0, dtype=np.int64)
        if ncomp > 1:
            comp = np.nonzero(labels == big)[0]
            inner, _ = sub.induced_subgraph(comp)
            sep = comp[ensure_progress(inner, core(inner, global_vertices[comp]))]
            return sep  # progress inside the component implies progress here
        return ensure_progress(sub, core(sub, global_vertices))

    return fn
