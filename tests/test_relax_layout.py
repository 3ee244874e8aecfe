"""The degree-bucketed edge layout of :class:`EdgeRelaxer`.

Random multigraphs with duplicate edges, self loops, one high in-degree
head and many low ones (so several power-of-two degree classes occur), plus
the empty edge set, relaxed on every shipped semiring through ``relax``,
``relax_rows`` and ``run_phases`` — each compared with a per-edge Python
reference, on the numpy path and on the compiled cores (pure Python under
the ``@njit`` shim when numba is absent).  Also pinned: the layout's
padding bound, the ledger's unpadded charge, and that a reweight's cloned
schedule ships exactly the arrays a cold compile does.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ShortestPathOracle
from repro.core.scheduler import build_schedule
from repro.core.semiring import BOOLEAN, COUNTING_HOPS, MAX_MIN, MIN_MAX, MIN_PLUS
from repro.kernels import dispatch
from repro.kernels import jit as jit_mod
from repro.kernels.bellman_ford import (
    EdgeRelaxer,
    bucket_layout,
    initial_distances,
    run_phases,
)
from repro.pram.machine import Ledger
from repro.separators.grid import decompose_grid
from repro.workloads.generators import grid_digraph

SEMIRINGS = [MIN_PLUS, COUNTING_HOPS, BOOLEAN, MAX_MIN, MIN_MAX]
N = 40


@pytest.fixture(params=["numpy", "jit"])
def kernel(request, monkeypatch):
    """The phase implementation: the numpy path, or the compiled cores
    (marked available, so the shim runs them as plain Python)."""
    if request.param == "jit":
        dispatch.available_kernels()
        monkeypatch.setattr(jit_mod, "HAVE_NUMBA", True)
        return "jit"
    return "pruned"


def multigraph(rng, *, empty: bool = False):
    """``(src, dst)`` over ``N`` vertices: ~300 edges into vertex 0, one to
    three into most others, every tenth edge duplicated, a few self loops."""
    if empty:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    heads = [np.zeros(300, dtype=np.int64)]
    for v in range(1, N):
        heads.append(np.full(int(rng.integers(0, 4)), v, dtype=np.int64))
    heads.append(np.array([5] * 7 + [6] * 16, dtype=np.int64))
    dst = np.concatenate(heads)
    src = rng.integers(0, N, size=dst.size)
    src[::17] = dst[::17]  # self loops
    dup = np.arange(0, dst.size, 10)
    src, dst = np.concatenate([src, src[dup]]), np.concatenate([dst, dst[dup]])
    order = rng.permutation(dst.size)
    return src[order], dst[order]


def weights(semiring, m, rng):
    """Integral weights (exact in float64, so every order of the ⊕ agrees
    to the bit), with some negative ones on the min-plus semirings."""
    if semiring is BOOLEAN:
        return rng.random(m) < 0.8
    if semiring in (MIN_PLUS, COUNTING_HOPS):
        return rng.integers(-2, 10, size=m).astype(np.float64)
    return rng.integers(0, 10, size=m).astype(np.float64)


def start(semiring, rows, rng):
    """A few sources per row plus random finite entries, so phases both
    improve and fail to improve."""
    dist = initial_distances(N, rng.integers(0, N, size=rows), semiring)
    pick = rng.random(dist.shape) < 0.2
    if semiring is BOOLEAN:
        dist[pick] = True
    else:
        dist[pick] = rng.integers(0, 30, size=int(pick.sum()))
    return dist


def reference_phase(dist, src, dst, w, semiring):
    """One Jacobi phase, edge by edge: every candidate reads the pre-phase
    row; returns the new rows and the per-row strictly-improved mask."""
    out = dist.copy()
    for r in range(dist.shape[0]):
        for e in range(src.shape[0]):
            cand = semiring.mul(dist[r, src[e]], w[e])
            out[r, dst[e]] = semiring.add(out[r, dst[e]], cand)
    return out, (out != dist).any(axis=1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_layout_shape_and_padding(seed):
    src, dst = multigraph(np.random.default_rng(seed))
    perm, targets, buckets = bucket_layout(dst)
    m = dst.size
    assert perm.size == int((buckets[:, 0] * buckets[:, 1]).sum()) <= 2 * m
    assert int(buckets[:, 2].sum()) == m
    assert np.array_equal(np.sort(targets), np.unique(dst))
    assert buckets.shape[0] >= 4  # several degree classes, 1 up to 300+
    # Every entry of a head's column is one of that head's edges, and every
    # edge appears; heads of a bucket share one degree class.
    off = hoff = 0
    for k, g, edges in buckets.tolist():
        block = perm[off : off + k * g].reshape(k, g)
        heads = targets[hoff : hoff + g]
        assert (dst[block] == heads[None, :]).all()
        deg = np.array([np.count_nonzero(dst == h) for h in heads])
        assert deg.max() == k and deg.sum() == edges
        assert (np.frexp(deg - 1)[1] == np.frexp(k - 1)[1]).all()
        off, hoff = off + k * g, hoff + g
    assert np.array_equal(np.unique(perm), np.arange(m))
    r = EdgeRelaxer(src, dst, np.ones(m))
    assert r.m == m and r.compiled()["src"].size == perm.size


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
def test_relax_matches_reference(semiring, kernel, rng):
    src, dst = multigraph(rng)
    w = weights(semiring, src.size, rng)
    r = EdgeRelaxer(src, dst, w, semiring, kernel=kernel)
    dist = start(semiring, 5, rng)
    for _ in range(4):
        want, want_rows = reference_phase(dist, src, dst, w, semiring)
        ledger = Ledger()
        changed = r.relax(dist, ledger=ledger)
        assert np.array_equal(dist, want)
        assert changed == bool(want_rows.any())
        assert ledger.work == 5 * src.size  # the real edges, not the padding
    one = dist[2].copy()
    want, _ = reference_phase(one[None, :], src, dst, w, semiring)
    r.relax(one)
    assert np.array_equal(one, want[0])


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("frontier", ["subset", "permuted", "full"])
def test_relax_rows_matches_reference(semiring, kernel, frontier, rng):
    src, dst = multigraph(rng)
    w = weights(semiring, src.size, rng)
    r = EdgeRelaxer(src, dst, w, semiring, kernel=kernel)
    dist = start(semiring, 6, rng)
    rows = {"subset": [1, 3, 4], "permuted": [5, 0, 2, 3], "full": list(range(6))}
    rows = np.array(rows[frontier])
    want, want_rows = reference_phase(dist, src, dst, w, semiring)
    untouched = np.setdiff1d(np.arange(6), rows)
    want[untouched] = dist[untouched]
    ledger = Ledger()
    got = r.relax_rows(dist, rows, ledger=ledger)
    assert np.array_equal(dist, want)
    assert np.array_equal(np.sort(got), np.sort(rows[want_rows[rows]]))
    assert ledger.work == rows.size * src.size


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
def test_run_phases_matches_reference(semiring, kernel, rng):
    """Repeated relaxers frontier-prune, distinct ones reset the frontier:
    the rows still equal relaxing every row in every phase."""
    relaxers, edges = [], []
    for _ in range(2):
        src, dst = multigraph(rng)
        w = weights(semiring, src.size, rng)
        relaxers.append(EdgeRelaxer(src, dst, w, semiring, kernel=kernel))
        edges.append((src, dst, w))
    order = [0, 0, 0, 1, 0, 1, 1]
    dist = start(semiring, 4, rng)
    want, work, prev = dist.copy(), 0, None
    for i in order:
        # A repeat scans only rows the previous phase of the run improved.
        active = np.arange(4) if i != prev else active[changed[active]]
        work += active.size * edges[i][0].size
        want, changed = reference_phase(want, *edges[i], semiring)
        prev = i
    ledger = Ledger()
    run_phases([relaxers[i] for i in order], dist, ledger=ledger)
    assert np.array_equal(dist, want)
    assert ledger.work == work


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
def test_empty_edge_set(semiring, kernel, rng):
    src, dst = multigraph(rng, empty=True)
    r = EdgeRelaxer(src, dst, weights(semiring, 0, rng), semiring, kernel=kernel)
    assert r.m == r.compiled()["src"].size == 0
    assert r.compiled()["buckets"].shape == (0, 3)
    dist = start(semiring, 3, rng)
    before = dist.copy()
    ledger = Ledger()
    assert not r.relax(dist, ledger=ledger)
    assert r.relax_rows(dist, np.arange(3), ledger=ledger).size == 0
    run_phases([r, r, r], dist, ledger=ledger)
    assert np.array_equal(dist, before)
    assert ledger.work == 0


def test_relax_rejects_stacks_above_two_dimensions():
    src, dst = multigraph(np.random.default_rng(0))
    r = EdgeRelaxer(src, dst, np.ones(src.size))
    dist = np.zeros((2, 3, N))
    with pytest.raises(ValueError, match="1-D or 2-D"):
        r.relax(dist)
    with pytest.raises(ValueError, match="1-D or 2-D"):
        run_phases([r], dist)


def test_from_compiled_round_trip(rng):
    src, dst = multigraph(rng)
    w = weights(MIN_PLUS, src.size, rng)
    r = EdgeRelaxer(src, dst, w)
    back = EdgeRelaxer.from_compiled(r.compiled())
    assert back.m == r.m
    a = start(MIN_PLUS, 3, rng)
    b = a.copy()
    r.relax(a)
    back.relax(b)
    assert np.array_equal(a, b)


def test_reweight_clone_ships_the_cold_layout(rng):
    """A reweight's schedule is regathered through the cached padded
    permutations; every compiled array equals a cold compile's, byte for
    byte."""
    g = grid_digraph((9, 9), rng)
    tree = decompose_grid(g, (9, 9), leaf_size=4)
    oracle = ShortestPathOracle.build(g, tree, method="leaves_up")
    oracle.schedule  # record the layouts against the first weighting
    new = oracle.with_new_weights(rng.integers(1, 10, size=g.m).astype(np.float64))
    cloned = new.augmentation._schedule
    assert cloned is not None  # the replay cloned it; no cold compile ran
    cold = build_schedule(new.augmentation)
    assert cloned.labels == cold.labels
    assert cloned.edge_scans == cold.edge_scans
    assert np.array_equal(cloned.aug_edge_phase_counts, cold.aug_edge_phase_counts)
    for a, b in zip(cloned.relaxers, cold.relaxers):
        ca, cb = a.compiled(), b.compiled()
        assert ca.keys() == cb.keys()
        for key in ca:
            assert ca[key].dtype == cb[key].dtype, key
            assert ca[key].tobytes() == cb[key].tobytes(), key
        assert a.m == b.m
