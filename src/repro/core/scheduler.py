"""The level schedule for Bellman–Ford on G⁺ (paper §3.2).

Theorem 3.1's proof exhibits, for every pair, an optimal path in G⁺ of a
rigid shape: at most ℓ original edges, then a run of shortcut edges whose
endpoint *levels* form a bitonic sequence (nonincreasing, then
nondecreasing, with at most two consecutive equal levels), then at most ℓ
original edges.  It therefore suffices to run ``2ℓ + 4·d_G + 1`` phases that
each scan only the edges that can appear at that position:

* phases ``1..ℓ``: all original edges (the leaf-interior prefix);
* descending half, ``i = 1..2d_G+1`` (phase ``ℓ+i``):
  - odd ``i``: edges with ``level(v₁) = level(v₂) = d_G − (i−1)/2``;
  - even ``i``: edges with ``level(v₁) = d_G − i/2 + 1`` and
    ``level(v₂) < level(v₁)`` (a drop);
* ascending half, ``i = 1..2d_G`` (phase ``ℓ+2d_G+1+i``):
  - odd ``i``: edges with ``level(v₁) = (i−1)/2 < level(v₂)`` (a rise);
  - even ``i``: edges with ``level(v₁) = level(v₂) = i/2``;
* final ℓ phases: all original edges (the suffix).

Each E⁺ edge matches at most two of the middle filters (its endpoint levels
are fixed), so per-source work is O(ℓ·|E| + |E ∪ E⁺|) — invariant I10.
Undefined levels (vertices never in any separator) are encoded as −1 and
never match a middle filter; such vertices are only entered/left through
the ℓ end phases, exactly as in the proof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels.bellman_ford import EdgeRelaxer, run_phases
from ..pram.machine import NULL_LEDGER, Ledger
from .augment import Augmentation

__all__ = ["PhaseSchedule", "build_schedule", "middle_phase_edges"]


@dataclass
class PhaseSchedule:
    """Precompiled phase relaxers, reusable across any number of sources."""

    relaxers: list[EdgeRelaxer]
    labels: list[str]
    #: total edge scans of one pass — the per-source work of §3.2.
    edge_scans: int
    #: how many middle phases each augmented edge participates in (diagnostic
    #: for invariant I10).
    aug_edge_phase_counts: np.ndarray

    @property
    def num_phases(self) -> int:
        return len(self.relaxers)

    def run(self, dist: np.ndarray, *, ledger: Ledger = NULL_LEDGER) -> np.ndarray:
        """One full pass over the schedule; ``dist`` has shape ``(n,)`` or
        ``(rows, n)`` and is updated in place (and returned).

        The ℓ prefix and suffix phases reuse one full-edge relaxer, so
        :func:`~repro.kernels.bellman_ford.run_phases` frontier-prunes
        within those runs: source rows the shared relaxer stopped improving
        skip its remaining repetitions (bit-identical — rows are
        independent), and the ledger records the work actually scanned."""
        return run_phases(self.relaxers, dist, ledger=ledger)


def middle_phase_edges(
    lv1: np.ndarray, lv2: np.ndarray, d_g: int
) -> list[tuple[str, np.ndarray]]:
    """``(label, edge indices)`` of the ``4·d_G + 1`` middle phases, in
    schedule order, for edges with endpoint levels ``lv1 → lv2``.

    Each phase filters on one tail level, so the edges are grouped by tail
    level once and every filter reads only its own group; indices come out
    ascending, exactly as ``np.nonzero`` of the full-length mask."""
    by_tail = np.argsort(lv1, kind="stable")
    tail_sorted = lv1[by_tail]

    def tail(lam: int) -> np.ndarray:
        lo, hi = np.searchsorted(tail_sorted, [lam, lam + 1])
        return by_tail[lo:hi]

    out = []
    # Descending half: levels d_G, d_G, d_G-1, d_G-1, ..., 0.
    for i in range(1, 2 * d_g + 2):
        if i % 2 == 1:
            lam = d_g - (i - 1) // 2
            idx = tail(lam)
            out.append((f"desc-same-{lam}", idx[lv2[idx] == lam]))
        else:
            lam = d_g - i // 2 + 1
            idx = tail(lam)
            head = lv2[idx]
            out.append((f"desc-drop-{lam}", idx[(head >= 0) & (head < lam)]))
    # Ascending half: rises from 0, 1, ..., interleaved with same-level.
    for i in range(1, 2 * d_g + 1):
        if i % 2 == 1:
            lam = (i - 1) // 2
            idx = tail(lam)
            out.append((f"asc-rise-{lam}", idx[lv2[idx] > lam]))
        else:
            lam = i // 2
            idx = tail(lam)
            out.append((f"asc-same-{lam}", idx[lv2[idx] == lam]))
    return out


def build_schedule(aug: Augmentation) -> PhaseSchedule:
    """Compile the §3.2 schedule for an augmentation."""
    tree = aug.tree
    semiring = aug.semiring
    g = aug.graph
    ell = aug.ell
    lv = tree.vertex_level  # -1 = undefined
    src, dst, w, is_aug = aug.combined_edges()

    kern = aug.kernel
    original = EdgeRelaxer(
        g.src, g.dst, g.weight.astype(semiring.dtype), semiring, kernel=kern
    )
    relaxers: list[EdgeRelaxer] = [original] * ell
    labels = [f"prefix-E-{i + 1}" for i in range(ell)]
    scans = 2 * ell * g.m
    aug_counts = np.zeros(src.shape[0], dtype=np.int64)
    for label, idx in middle_phase_edges(lv[src], lv[dst], tree.height):
        aug_counts[idx] += 1
        relaxers.append(
            EdgeRelaxer(src[idx], dst[idx], w[idx], semiring, kernel=kern)
        )
        labels.append(label)
        scans += int(idx.shape[0])
    relaxers += [original] * ell
    labels += [f"suffix-E-{i + 1}" for i in range(ell)]

    return PhaseSchedule(
        relaxers=relaxers,
        labels=labels,
        edge_scans=scans,
        aug_edge_phase_counts=aug_counts[is_aug],
    )
