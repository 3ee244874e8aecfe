"""Compiled (numba) backend for the min-plus inner loops.

Every expensive path in the system — the 3-hop products of Algorithm 4.1,
the squaring rounds of Algorithm 4.3, the spine Bellman–Ford and every
served query — bottoms out in two loops: the dense semiring matrix product
(:func:`repro.kernels.minplus.semiring_matmul`) and the degree-bucketed
frontier relaxation (:meth:`repro.kernels.bellman_ford.EdgeRelaxer.relax_rows`).
The numpy kernels must materialize ⊕-reduction temporaries; the compiled
kernels here keep the running ⊕ in a register (an ``i,k,j`` loop with a
row accumulator, parallelized over output rows), so they beat the best
vectorized kernel by roughly the temporary-traffic ratio once warm.

numba is a **strictly optional** dependency (``pip install repro[jit]``).
When it is absent this module still imports — ``@njit`` degrades to an
identity decorator and ``prange`` to ``range`` — so the *logic* of every
kernel stays importable and testable in pure Python, but the backend does
**not** register with :mod:`repro.kernels.dispatch`: ``auto`` never picks
``jit`` and requesting it explicitly raises a :class:`ValueError` naming
the missing extra.  :data:`HAVE_NUMBA` / :func:`jit_available` report
which mode the process is in.

**Why the outputs are bit-identical.**  Every shipped ⊕ (min / max / or)
is an exact, order-independent *selection* — it never rounds — so the
register accumulation here re-associates the same reduction the numpy
kernels perform and cannot change a single bit.  Skipping 0̄ terms
(``a[i, k] == 0̄``) is exact for the same reason pruning is: 0̄ is the
⊗-annihilator and the ⊕-identity.  (This argument fails for semirings
whose ⊕ rounds, e.g. plus-times over floats; unknown semirings therefore
fall back to the numpy ``pruned`` kernel — see :func:`matmul_supported`.)

Compilation cost is paid once per (function, signature) pair and is cached
on disk by numba (``cache=True``; set ``NUMBA_CACHE_DIR`` to relocate or
share the cache).  ``tools/autotune_kernels.py`` measures the warm-compile
time separately from the steady-state timings so first-call JIT cost never
pollutes block-size tuning, and persists it for staleness detection.

The PRAM ledger is unaffected by any of this: kernels are execution
detail, the ledger charges model quantities (see
:mod:`repro.kernels.dispatch`).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HAVE_NUMBA",
    "NUMBA_IMPORT_ERROR",
    "jit_available",
    "matmul_supported",
    "relax_supported",
    "matmul_jit",
    "relax_phase",
    "hop_limited_jit",
    "warm_up",
]

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit, prange

    HAVE_NUMBA = True
    NUMBA_IMPORT_ERROR: str | None = None
except Exception as _exc:  # ImportError, or a broken numba/llvmlite install
    HAVE_NUMBA = False
    NUMBA_IMPORT_ERROR = f"{type(_exc).__name__}: {_exc}"

    def njit(*args, **kwargs):  # noqa: D103 - shim, documented above
        """Identity decorator standing in for ``numba.njit`` (pure-Python
        mode): kernels below run as ordinary interpreted loops."""
        if args and callable(args[0]):
            return args[0]

        def deco(fn):
            return fn

        return deco

    prange = range


def jit_available() -> bool:
    """Whether the compiled backend can actually run (numba imported).

    Tests monkeypatch :data:`HAVE_NUMBA` to simulate a missing install;
    always consult this function, never the flag captured at import."""
    return HAVE_NUMBA


#: Semiring names with a compiled matmul / relax core.  ``hops`` shares the
#: min-plus ops (⊕ = min, ⊗ = +).
_SUPPORTED = frozenset({"min-plus", "hops", "max-min", "min-max", "boolean"})


def matmul_supported(semiring) -> bool:
    """Whether ``semiring`` has a compiled matmul (shipped selections only)."""
    return semiring.name in _SUPPORTED


def relax_supported(semiring) -> bool:
    """Whether ``semiring`` has a compiled relaxation core."""
    return semiring.name in _SUPPORTED


# ------------------------------------------------------------------ #
# Matrix product cores: i (parallel) / k / j with a register-resident
# output row; the k loop skips 0̄ A-entries (exact, see module docstring).
# ------------------------------------------------------------------ #


@njit(parallel=True, cache=True)
def _mm_min_plus(a, b, out, accumulate):
    l, kk = a.shape
    m = b.shape[1]
    for i in prange(l):
        row = np.empty(m, np.float64)
        if accumulate:
            for j in range(m):
                row[j] = out[i, j]
        else:
            for j in range(m):
                row[j] = np.inf
        for k in range(kk):
            aik = a[i, k]
            if aik == np.inf:  # 0̄ ⊗ x = 0̄, the ⊕-identity: skip exactly
                continue
            for j in range(m):
                cand = aik + b[k, j]
                if cand < row[j]:
                    row[j] = cand
        for j in range(m):
            out[i, j] = row[j]


@njit(parallel=True, cache=True)
def _mm_max_min(a, b, out, accumulate):
    l, kk = a.shape
    m = b.shape[1]
    for i in prange(l):
        row = np.empty(m, np.float64)
        if accumulate:
            for j in range(m):
                row[j] = out[i, j]
        else:
            for j in range(m):
                row[j] = -np.inf
        for k in range(kk):
            aik = a[i, k]
            if aik == -np.inf:
                continue
            for j in range(m):
                bkj = b[k, j]
                cand = aik if aik < bkj else bkj
                if cand > row[j]:
                    row[j] = cand
        for j in range(m):
            out[i, j] = row[j]


@njit(parallel=True, cache=True)
def _mm_min_max(a, b, out, accumulate):
    l, kk = a.shape
    m = b.shape[1]
    for i in prange(l):
        row = np.empty(m, np.float64)
        if accumulate:
            for j in range(m):
                row[j] = out[i, j]
        else:
            for j in range(m):
                row[j] = np.inf
        for k in range(kk):
            aik = a[i, k]
            if aik == np.inf:
                continue
            for j in range(m):
                bkj = b[k, j]
                cand = aik if aik > bkj else bkj
                if cand < row[j]:
                    row[j] = cand
        for j in range(m):
            out[i, j] = row[j]


@njit(parallel=True, cache=True)
def _mm_bool(a, b, out, accumulate):
    l, kk = a.shape
    m = b.shape[1]
    for i in prange(l):
        row = np.empty(m, np.bool_)
        if accumulate:
            for j in range(m):
                row[j] = out[i, j]
        else:
            for j in range(m):
                row[j] = False
        for k in range(kk):
            if not a[i, k]:
                continue
            for j in range(m):
                if b[k, j]:
                    row[j] = True
        for j in range(m):
            out[i, j] = row[j]


#: semiring name -> (compiled core, operand dtype).
_MM_CORES = {
    "min-plus": (_mm_min_plus, np.float64),
    "hops": (_mm_min_plus, np.float64),
    "max-min": (_mm_max_min, np.float64),
    "min-max": (_mm_min_max, np.float64),
    "boolean": (_mm_bool, np.bool_),
}


def matmul_jit(a, b, semiring, out, accumulate, budget, tuning):
    """The ``jit`` kernel for the dispatch registry (uniform signature).

    ``budget`` and ``tuning`` are accepted for signature compatibility but
    unused: the compiled core's only temporary is one output row per
    thread, so there is nothing to block or budget.  Unknown semirings
    fall back to the numpy ``pruned`` kernel (bit-identity is only argued
    for the shipped selections).
    """
    core = _MM_CORES.get(semiring.name)
    if core is None:
        from .dispatch import _KERNELS, tuning_for

        return _KERNELS["pruned"](
            a, b, semiring, out, accumulate, budget, tuning_for("pruned")
        )
    fn, dt = core
    fn(np.ascontiguousarray(a, dtype=dt), np.ascontiguousarray(b, dtype=dt),
       out, accumulate)
    return out


def hop_limited_jit(base, hops, semiring, out_pool=None):
    """Best weights over ≤``hops``-edge paths with ping-pong buffers.

    ``base`` must already have its diagonal ⊕-combined with 1̄ (the caller,
    :func:`repro.kernels.minplus.hop_limited_product`, does this).  Each
    step is ``acc ← acc ⊗ base`` through the compiled core — bit-identical
    to ``hops - 1`` dispatched ``semiring_matmul(..., kernel="jit")``
    calls, without the per-hop allocation and dispatch overhead.
    """
    fn, dt = _MM_CORES[semiring.name]
    acc = np.ascontiguousarray(base, dtype=dt)
    bb = acc
    scratch = np.empty_like(acc)
    for _ in range(hops - 1):
        fn(acc, bb, scratch, False)
        acc, scratch = scratch, acc if acc is not bb else np.empty_like(acc)
    return acc


# ------------------------------------------------------------------ #
# Relaxation cores: one Jacobi phase over the degree-bucketed layout of
# :func:`repro.kernels.bellman_ford.bucket_layout` — per bucket a k-major
# (k, g) block, so entry [j, h] sits at ``off + j*g + h``.  Rows are
# independent single-source problems (the PRAM's per-source parallelism),
# so the phase parallelizes over rows; per row the grouped ⊕ is buffered
# before any write so the semantics stay synchronous (Jacobi), exactly
# like the numpy path.  A padded entry repeats a real edge of its head,
# which a selecting ⊕ absorbs exactly.
# ------------------------------------------------------------------ #


@njit(parallel=True, cache=True)
def _relax_min_plus(dist, src, w, targets, buckets):
    rows = dist.shape[0]
    nheads = targets.shape[0]
    changed = np.zeros(rows, np.bool_)
    for r in prange(rows):
        grouped = np.empty(nheads, np.float64)
        off = 0
        hoff = 0
        for b in range(buckets.shape[0]):
            k = buckets[b, 0]
            g = buckets[b, 1]
            for h in range(g):
                e = off + h
                acc = dist[r, src[e]] + w[e]
                for j in range(1, k):
                    e = off + j * g + h
                    cand = dist[r, src[e]] + w[e]
                    if cand < acc:
                        acc = cand
                grouped[hoff + h] = acc
            off += k * g
            hoff += g
        rowch = False
        for gi in range(nheads):
            t = targets[gi]
            if grouped[gi] < dist[r, t]:
                dist[r, t] = grouped[gi]
                rowch = True
        changed[r] = rowch
    return changed


@njit(parallel=True, cache=True)
def _relax_max_min(dist, src, w, targets, buckets):
    rows = dist.shape[0]
    nheads = targets.shape[0]
    changed = np.zeros(rows, np.bool_)
    for r in prange(rows):
        grouped = np.empty(nheads, np.float64)
        off = 0
        hoff = 0
        for b in range(buckets.shape[0]):
            k = buckets[b, 0]
            g = buckets[b, 1]
            for h in range(g):
                e = off + h
                d = dist[r, src[e]]
                acc = d if d < w[e] else w[e]
                for j in range(1, k):
                    e = off + j * g + h
                    d = dist[r, src[e]]
                    cand = d if d < w[e] else w[e]
                    if cand > acc:
                        acc = cand
                grouped[hoff + h] = acc
            off += k * g
            hoff += g
        rowch = False
        for gi in range(nheads):
            t = targets[gi]
            if grouped[gi] > dist[r, t]:
                dist[r, t] = grouped[gi]
                rowch = True
        changed[r] = rowch
    return changed


@njit(parallel=True, cache=True)
def _relax_min_max(dist, src, w, targets, buckets):
    rows = dist.shape[0]
    nheads = targets.shape[0]
    changed = np.zeros(rows, np.bool_)
    for r in prange(rows):
        grouped = np.empty(nheads, np.float64)
        off = 0
        hoff = 0
        for b in range(buckets.shape[0]):
            k = buckets[b, 0]
            g = buckets[b, 1]
            for h in range(g):
                e = off + h
                d = dist[r, src[e]]
                acc = d if d > w[e] else w[e]
                for j in range(1, k):
                    e = off + j * g + h
                    d = dist[r, src[e]]
                    cand = d if d > w[e] else w[e]
                    if cand < acc:
                        acc = cand
                grouped[hoff + h] = acc
            off += k * g
            hoff += g
        rowch = False
        for gi in range(nheads):
            t = targets[gi]
            if grouped[gi] < dist[r, t]:
                dist[r, t] = grouped[gi]
                rowch = True
        changed[r] = rowch
    return changed


@njit(parallel=True, cache=True)
def _relax_bool(dist, src, w, targets, buckets):
    rows = dist.shape[0]
    nheads = targets.shape[0]
    changed = np.zeros(rows, np.bool_)
    for r in prange(rows):
        grouped = np.empty(nheads, np.bool_)
        off = 0
        hoff = 0
        for b in range(buckets.shape[0]):
            k = buckets[b, 0]
            g = buckets[b, 1]
            for h in range(g):
                acc = False
                for j in range(k):
                    e = off + j * g + h
                    if dist[r, src[e]] and w[e]:
                        acc = True
                        break
                grouped[hoff + h] = acc
            off += k * g
            hoff += g
        rowch = False
        for gi in range(nheads):
            t = targets[gi]
            if grouped[gi] and not dist[r, t]:
                dist[r, t] = True
                rowch = True
        changed[r] = rowch
    return changed


_RELAX_CORES = {
    "min-plus": _relax_min_plus,
    "hops": _relax_min_plus,
    "max-min": _relax_max_min,
    "min-max": _relax_min_max,
    "boolean": _relax_bool,
}


def relax_phase(dist, src, w, targets, buckets, semiring):
    """One synchronous relaxation phase over ``dist`` (2-D, in place) on
    the degree-bucketed layout (``src``/``w`` in layout order, bucket-
    ordered ``targets``, ``(B, 3)`` ``buckets`` of ``(k, g, edges)``).

    Returns the per-row strictly-improved mask.  Bit-identical to the
    numpy path of :class:`~repro.kernels.bellman_ford.EdgeRelaxer`: the
    grouped ⊕ is computed from the pre-phase values before any write, each
    head's edges are ⊕-ed in the same order, and every ⊕ is an exact
    selection.
    """
    core = _RELAX_CORES[semiring.name]
    return core(dist, src, w, targets, buckets)


# ------------------------------------------------------------------ #
# Warm-up / compile-cost measurement
# ------------------------------------------------------------------ #


def warm_up(include_bool: bool = True) -> float:
    """Force-compile every core on tiny operands; returns the wall seconds
    spent (≈0 when numba's on-disk cache is warm or numba is absent).

    The autotuner calls this *before* timing so block-size sweeps never
    include first-call JIT cost, and persists the returned figure so a
    stale ``NUMBA_CACHE_DIR`` is detectable from the tuning file.
    """
    import time

    t0 = time.perf_counter()
    a = np.array([[0.0, np.inf], [1.0, 0.0]])
    out = np.empty((2, 2))
    for fn in (_mm_min_plus, _mm_max_min, _mm_min_max):
        fn(a, a, out, False)
    src = np.array([0, 1], dtype=np.int64)
    targets = np.array([0, 1], dtype=np.int64)
    buckets = np.array([[1, 2, 2]], dtype=np.int64)
    d = np.array([[0.0, np.inf]])
    for fn in (_relax_min_plus, _relax_max_min, _relax_min_max):
        fn(d.copy(), src, np.array([1.0, 2.0]), targets, buckets)
    if include_bool:
        ab = np.array([[True, False], [False, True]])
        outb = np.empty((2, 2), np.bool_)
        _mm_bool(ab, ab, outb, False)
        _relax_bool(
            np.array([[True, False]]), src,
            np.array([True, True]), targets, buckets,
        )
    return time.perf_counter() - t0


# Registration: only a *working* compiled backend enters the registry, so
# ``auto`` can never select ``jit`` on a numba-less install and
# ``available_kernels()`` reflects what can actually run.  (The helpful
# "requires the numba extra" error for an explicit request lives in
# ``dispatch.resolve_kernel``.)
if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed
    from .dispatch import register_kernel

    register_kernel("jit")(matmul_jit)
