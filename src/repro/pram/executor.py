"""Execution backends for per-node independent work.

The paper's algorithms expose three sources of parallelism that survive on
real hardware: all tree nodes of a level are independent in Algorithm 4.1,
all nodes are independent within one doubling round of Algorithm 4.3, and
all sources of a batched §3.2 query relax disjoint rows of the distance
matrix.  These backends let the same orchestration code run serially, on a
thread pool (numpy kernels release the GIL inside BLAS/ufunc loops), or on
the zero-copy shared-memory process pool (true parallelism with O(1) bytes
of task traffic — see :mod:`repro.pram.shm`).

Spec grammar
------------
:func:`get_executor` resolves a *spec* to a backend instance::

    spec      ::=  None | instance | "serial" | name [":" workers]
    name      ::=  "thread" | "shm"
    workers   ::=  positive integer (default: min(8, cpu_count))

Examples: ``"serial"``, ``"thread:4"``, ``"shm"``, ``"shm:8"``.
``None`` means serial; an existing executor instance passes through
unchanged (the caller keeps ownership and must ``close()`` it).
:func:`parse_spec` checks a spec string against the grammar without
starting a pool.

Worker-function contract
------------------------
Every backend hands out an arena (:meth:`arena`) with one interface:
``publish(array)`` returns what a payload carries for an input array,
``alloc(shape, dtype)`` returns ``(handle, view)`` for an output block the
worker fills in place, and ``close()`` ends the arena's lifetime.
Orchestrators build one payload form from these handles, so one set of
module-level worker functions serves every backend:

* ``serial`` / ``thread`` — :class:`LocalArena`: handles *are* the arrays
  (no copy), and ``close`` does nothing.
* ``shm`` — :class:`~repro.pram.shm.ShmArena`: handles are
  :class:`~repro.pram.shm.ArrayRef` descriptors, which the pool resolves
  (dicts/lists/tuples, arbitrarily nested) to zero-copy views *before* the
  worker function runs.  Worker functions must be module-level and
  payloads picklable.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .shm import ShmArena, resolve

__all__ = [
    "LocalArena",
    "SerialExecutor",
    "ThreadExecutor",
    "ShmExecutor",
    "get_executor",
    "parse_spec",
    "run_with_arena",
]

SPEC_GRAMMAR = "serial | thread[:N] | shm[:N]"


class LocalArena:
    """The in-process arena of the ``serial`` and ``thread`` backends.

    Same interface as :class:`~repro.pram.shm.ShmArena`, with nothing to
    share: ``publish`` returns its argument, ``alloc`` returns a plain numpy
    block as both handle and view, and ``close`` does nothing.
    """

    allocated_bytes = 0

    def publish(self, array: np.ndarray) -> np.ndarray:
        """The array itself — workers run in this address space."""
        return array

    def alloc(self, shape, dtype) -> tuple[np.ndarray, np.ndarray]:
        """An uninitialized block, as ``(handle, view)`` (the same array)."""
        block = np.empty(shape, dtype=dtype)
        return block, block

    def close(self) -> None:
        """Nothing to release."""


class SerialExecutor:
    """Run tasks in the calling thread (the default)."""

    name = "serial"
    workers = 1
    #: Tasks run in the caller's address space: they may be closures and
    #: may write the caller's arrays directly.
    in_process = True

    def map(self, fn: Callable[[Any], Any], payloads: Sequence[Any]) -> list[Any]:
        """Apply ``fn`` to each payload, preserving order."""
        return [fn(p) for p in payloads]

    def arena(self, tag: str = "") -> LocalArena:
        """An in-process arena (``tag`` only names shared segments)."""
        return LocalArena()

    def close(self) -> None:
        """No resources to release."""


class ThreadExecutor:
    """Thread-pool backend; effective when the work is numpy-heavy."""

    name = "thread"
    in_process = True

    def __init__(self, workers: int | None = None) -> None:
        self.workers = workers or min(8, os.cpu_count() or 1)
        self._pool = ThreadPoolExecutor(max_workers=self.workers)

    def map(self, fn: Callable[[Any], Any], payloads: Sequence[Any]) -> list[Any]:
        """Apply ``fn`` on the thread pool, preserving order."""
        return list(self._pool.map(fn, payloads))

    def arena(self, tag: str = "") -> LocalArena:
        """An in-process arena (``tag`` only names shared segments)."""
        return LocalArena()

    def close(self) -> None:
        """Shut the pool down, waiting for in-flight tasks."""
        self._pool.shutdown(wait=True)


def _resolving_call(item: tuple[Callable[[Any], Any], Any]) -> Any:
    """Worker-side trampoline: resolve shared-memory descriptors in the
    payload, then run the task (module level so it pickles)."""
    fn, payload = item
    return fn(resolve(payload))


class ShmExecutor:
    """Persistent process pool whose payloads travel as shared-memory
    descriptors instead of pickled arrays.

    Every :class:`~repro.pram.shm.ArrayRef` found inside a payload is
    resolved to a zero-copy view in the worker before the task function
    runs, so the worker functions written against :class:`LocalArena`
    handles run unchanged here.

    The pool persists across ``map`` calls — algorithms publish their big
    arrays once per run (to the :class:`~repro.pram.shm.ShmArena` from
    :meth:`arena`) and reuse the warm workers for every subsequent phase or
    query batch.

    Because payloads are descriptor-sized, tasks are dispatched in chunks
    (several payloads per IPC round trip) — the per-task pool overhead that
    dominates fine-grained levels is amortized away without duplicating any
    array bytes.
    """

    name = "shm"
    in_process = False

    def __init__(self, workers: int | None = None) -> None:
        self.workers = workers or min(8, os.cpu_count() or 1)
        self._pool = ProcessPoolExecutor(max_workers=self.workers)

    def map(self, fn: Callable[[Any], Any], payloads: Sequence[Any]) -> list[Any]:
        """Apply ``fn`` on the pool with descriptor resolution, preserving
        order.  Payloads are shipped several-per-task (cheap: descriptors,
        not arrays) so fine-grained levels aren't dispatch-bound."""
        chunk = max(1, len(payloads) // (self.workers * 4))
        return list(
            self._pool.map(_resolving_call, [(fn, p) for p in payloads], chunksize=chunk)
        )

    def arena(self, tag: str = "") -> ShmArena:
        """A fresh shared-memory arena, owned (and closed) by the caller."""
        return ShmArena(tag=tag)

    def close(self) -> None:
        """Shut the pool down, waiting for in-flight tasks.

        Arenas are owned by the orchestrators that created them, not the
        executor; closing the pool releases worker-side segment mappings.
        """
        self._pool.shutdown(wait=True)


_BACKENDS = {"serial": SerialExecutor, "thread": ThreadExecutor, "shm": ShmExecutor}


def parse_spec(spec: str) -> tuple[str, int | None]:
    """Check a spec string against the grammar; returns ``(name, workers)``
    (``workers`` is ``None`` when the count is omitted).

    Raises :class:`ValueError` naming the grammar for unknown names, a
    count on ``serial``, and counts that are not positive integers.
    """
    name, colon, count = spec.partition(":")
    if name not in _BACKENDS or (colon and name == "serial"):
        raise ValueError(f"unknown executor spec {spec!r}; expected {SPEC_GRAMMAR}")
    if not colon:
        return name, None
    if not (count.isascii() and count.isdigit()) or int(count) <= 0:
        raise ValueError(
            f"executor spec {spec!r} needs a positive integer worker count; "
            f"expected {SPEC_GRAMMAR}"
        )
    return name, int(count)


def get_executor(spec) -> SerialExecutor | ThreadExecutor | ShmExecutor:
    """Resolve an executor spec (see the module docstring's grammar).

    ``None`` → serial; ``"name[:N]"`` → a fresh backend with ``N`` workers;
    an instance → passed through unchanged (caller keeps ownership).
    """
    if spec is None:
        return SerialExecutor()
    if not isinstance(spec, str):
        return spec
    name, workers = parse_spec(spec)
    if name == "serial":
        return SerialExecutor()
    return _BACKENDS[name](workers)


@contextmanager
def run_with_arena(spec) -> Iterator[tuple[Any, Any]]:
    """``(executor, arena)`` for one orchestrated run.

    The arena is closed on exit, and so is the executor when this call
    created it from a spec (an instance stays open for its owner).  Blocks
    allocated in the arena do not outlive the run on ``shm``: results that
    must survive are copied out before exit.
    """
    exe = get_executor(spec)
    arena = exe.arena()
    try:
        yield exe, arena
    finally:
        arena.close()
        if exe is not spec:
            exe.close()
