"""Kernel registry and dispatch for the dense semiring matrix product.

:func:`repro.kernels.minplus.semiring_matmul` is the cubic inner loop of
both augmentation algorithms (the 3-hop products of Algorithm 4.1 and the
squaring rounds of Algorithm 4.3).  This module makes that loop swappable:
several *bit-identical* implementations register here under short names and
a dispatch policy picks one per call.

Registered kernels (implemented in :mod:`repro.kernels.minplus`):

``reference``
    The broadcast kernel: one ``(rows, k, m)`` temporary per row block,
    ⊕-reduced densely.  Simple, always correct, memory-bandwidth bound.
``blocked``
    Cache-blocked panels over ``(l, k, m)`` with a running ⊕-accumulator:
    the temporary is bounded by ``block_l·block_k·block_m`` elements
    instead of ``rows·k·m``, so panels stay cache-resident.
``pruned``
    Sparsity-aware: per row panel, columns ``k`` whose ``A``-entries are
    all 0̄ (or whose ``B``-row is all 0̄) are compressed away before the
    product — 0̄ is ⊗-annihilating and the ⊕-identity, so dropping such
    terms is exact.  Early doubling iterates of Algorithm 4.3 are mostly
    +inf, so whole panels skip.  Falls back to blocked accumulation on
    dense panels.

A fourth kernel, ``jit`` (:mod:`repro.kernels.jit`), registers **only when
numba imports**: compiled register-accumulating loops that avoid the
⊕-reduction temporaries entirely.  numba is a strictly optional extra
(``pip install repro[jit]``); without it ``auto`` never selects ``jit``
and an explicit request raises a :class:`ValueError` naming the extra.

All kernels produce bit-identical outputs for the registered semirings
because every shipped ``⊕`` (min / max / or) is an exact, order-independent
selection — re-associating the reduction over ``k`` cannot change a single
bit (see ``tests/test_kernel_dispatch.py``).

Selection
---------

* explicit per call: ``semiring_matmul(..., kernel="blocked")``;
* process default: :func:`set_default_kernel` or the ``REPRO_KERNEL``
  environment variable (``reference`` | ``blocked`` | ``pruned`` | ``auto``);
* ``auto`` (the default): ``reference`` for small products (dispatch and
  masking overhead dominates below ~32k ⊗-operations); above that,
  ``jit`` when the compiled backend is importable and the product clears
  the (autotunable) ``jit_min_ops`` threshold, else ``pruned`` (which
  degrades gracefully to blocked panels when nothing is prunable).

Autotuned block sizes
---------------------

Block sizes are machine-dependent (cache sizes, numpy build).
``tools/autotune_kernels.py`` times candidate shapes on this machine and
persists the winners to a small JSON file; :func:`tuning_for` merges that
file over the defaults.  The file lives at ``$REPRO_KERNEL_TUNE`` or
``~/.cache/repro/kernel_tuning.json``.

The PRAM ledger is *not* affected by kernel choice: a dense product always
charges the model quantities ``work = l·k·m`` and ``depth = ⌈log₂ k⌉``
regardless of how much scanning the execution skipped — the kernels are
execution detail, the ledger is the cost model.  (Frontier-pruned
*relaxation* is different: there the scanned work is the model quantity,
see :mod:`repro.kernels.bellman_ford`.)
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Callable

__all__ = [
    "register_kernel",
    "available_kernels",
    "resolve_kernel",
    "choose_kernel",
    "get_default_kernel",
    "set_default_kernel",
    "jit_available",
    "DEFAULT_TUNING",
    "tuning_for",
    "tuning_path",
    "load_tuning",
    "save_tuning",
    "reload_tuning",
    "relax_jit_threshold",
]

#: name -> kernel callable ``fn(a, b, semiring, out, accumulate, budget, tuning)``.
_KERNELS: dict[str, Callable] = {}

#: Below this many ⊗-operations ``auto`` picks ``reference`` (dispatch,
#: mask and Python-loop overhead beat any cache savings on tiny products).
AUTO_SMALL_OPS = 1 << 15

#: Fallback block shapes (and ``auto``-policy thresholds; the ``jit``
#: entries only matter where numba is installed); the autotuner overrides
#: these per machine.  The reserved ``meta`` key of the tuning file holds
#: provenance (numpy/numba versions, measured compile time) and is never a
#: kernel name.
DEFAULT_TUNING: dict[str, dict] = {
    "blocked": {"block_l": 32, "block_k": 128, "block_m": 128},
    "pruned": {"block_l": 48, "dead_frac": 0.0625},
    "auto": {"jit_min_ops": AUTO_SMALL_OPS, "jit_min_relax_ops": 1 << 13},
}

_ENV_KERNEL = "REPRO_KERNEL"
_ENV_TUNE = "REPRO_KERNEL_TUNE"

_default_kernel: str | None = None
_tuning_cache: dict | None = None


def register_kernel(name: str):
    """Decorator: register a kernel implementation under ``name``."""

    def deco(fn: Callable) -> Callable:
        _KERNELS[name] = fn
        return fn

    return deco


def _ensure_registered() -> None:
    if not _KERNELS:  # populate via minplus's module-level decorators
        from . import minplus  # noqa: F401
        from . import jit  # noqa: F401  (self-registers only when numba imports)


def available_kernels() -> list[str]:
    """Names of the registered kernels (sorted).  ``jit`` appears only
    when numba is importable — the registry lists what can actually run."""
    _ensure_registered()
    return sorted(_KERNELS)


def jit_available() -> bool:
    """Whether the compiled ``jit`` backend can run in this process."""
    try:
        from . import jit

        return jit.jit_available()
    except Exception:  # pragma: no cover - a broken partial install
        return False


def _kernel_error(name: str, via_env: bool) -> ValueError:
    """A helpful error for an unresolvable kernel name: lists what is
    registered, names the ``numba`` extra when ``jit`` was asked for, and
    points at ``$REPRO_KERNEL`` when that is where the name came from."""
    origin = f" (from ${_ENV_KERNEL})" if via_env else ""
    have = available_kernels()
    if name == "jit":
        from . import jit

        detail = f": {jit.NUMBA_IMPORT_ERROR}" if jit.NUMBA_IMPORT_ERROR else ""
        return ValueError(
            f"kernel 'jit'{origin} requires the optional numba dependency "
            f"(pip install 'repro[jit]'){detail}; registered kernels: {have}"
        )
    return ValueError(
        f"unknown kernel {name!r}{origin}; registered kernels: {have} "
        f"(or 'auto'; select via kernel=, OracleConfig.kernel, or ${_ENV_KERNEL})"
    )


def get_default_kernel() -> str:
    """Process-wide default kernel name (``auto`` unless overridden by
    :func:`set_default_kernel` or ``$REPRO_KERNEL``)."""
    if _default_kernel is not None:
        return _default_kernel
    return os.environ.get(_ENV_KERNEL, "auto")


def set_default_kernel(name: str | None) -> None:
    """Override the process default (``None`` restores env/auto)."""
    global _default_kernel
    if name is not None and name != "auto":
        _ensure_registered()
        if name not in _KERNELS or (name == "jit" and not jit_available()):
            raise _kernel_error(name, via_env=False)
    _default_kernel = name


def choose_kernel(l: int, k: int, m: int) -> str:
    """The ``auto`` policy: pick a concrete kernel for an ``l×k ⊗ k×m``
    product.  Small products take the broadcast reference; past the
    (autotunable) ``jit_min_ops`` threshold the compiled backend wins when
    it is importable; everything else takes ``pruned``, which
    self-degrades to blocked panels when dense."""
    ops = float(l) * k * m
    if ops <= AUTO_SMALL_OPS:
        return "reference"
    if jit_available() and ops >= float(
        tuning_for("auto").get("jit_min_ops", AUTO_SMALL_OPS)
    ):
        return "jit"
    return "pruned"


def resolve_kernel(name: str | None, l: int, k: int, m: int) -> tuple[str, Callable]:
    """Resolve a kernel spec (explicit name, ``"auto"`` or ``None`` for the
    process default) to ``(concrete name, callable)``.

    An unresolvable name — unknown, or ``jit`` on a numba-less install,
    whether passed explicitly or arriving via ``$REPRO_KERNEL`` — raises a
    :class:`ValueError` listing the registered kernels."""
    _ensure_registered()
    via_env = False
    if name is None:
        name = get_default_kernel()
        via_env = _default_kernel is None and name != "auto"
    if name == "auto":
        name = choose_kernel(l, k, m)
    fn = _KERNELS.get(name)
    if fn is None or (name == "jit" and not jit_available()):
        raise _kernel_error(name, via_env=via_env)
    return name, fn


# ------------------------------------------------------------------ #
# Tuned block-size persistence
# ------------------------------------------------------------------ #


def tuning_path() -> pathlib.Path:
    """Where tuned block sizes live on this machine."""
    env = os.environ.get(_ENV_TUNE)
    if env:
        return pathlib.Path(env)
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return pathlib.Path(cache) / "repro" / "kernel_tuning.json"


def load_tuning() -> dict:
    """The persisted tuning file as a dict (``{}`` when absent/corrupt);
    cached after the first read — :func:`reload_tuning` re-reads."""
    global _tuning_cache
    if _tuning_cache is None:
        path = tuning_path()
        try:
            _tuning_cache = json.loads(path.read_text())
        except (OSError, ValueError):
            _tuning_cache = {}
    return _tuning_cache


def reload_tuning() -> dict:
    """Drop the cache and re-read the tuning file."""
    global _tuning_cache
    _tuning_cache = None
    return load_tuning()


def save_tuning(tuning: dict, path: pathlib.Path | None = None) -> pathlib.Path:
    """Persist autotuner winners (merged over any existing file) and refresh
    the in-process cache.  Returns the path written."""
    path = tuning_path() if path is None else pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        existing = json.loads(path.read_text())
    except (OSError, ValueError):
        existing = {}
    existing.update(tuning)
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
    global _tuning_cache
    _tuning_cache = existing
    return path


def tuning_for(kernel: str) -> dict:
    """Effective parameters for ``kernel``: defaults overlaid with any
    persisted autotuner winners.  (``"auto"`` holds the policy thresholds;
    the tuning file's ``"meta"`` key is provenance, not a kernel.)"""
    params = dict(DEFAULT_TUNING.get(kernel, {}))
    params.update(load_tuning().get(kernel, {}))
    return params


def relax_jit_threshold() -> float:
    """``auto``-policy floor, in row·edge scans, below which a relaxation
    phase stays on the numpy bucketed path (compiled-call overhead
    dominates tiny phases).  Autotunable as ``auto.jit_min_relax_ops``."""
    return float(tuning_for("auto").get("jit_min_relax_ops", 1 << 13))
