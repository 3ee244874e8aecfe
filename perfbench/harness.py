"""Shared machinery of the benchmark: seeded inputs, the no-preprocessing
floor, answer checks, spans around calls into the program's layers,
per-cycle records, and the roll-up into named metrics.

A run is a few *cycles*.  Each cycle sets the program up from the generated
graph until it answers its first query (timed as ``setup_s``), drives the
workload's load for its share of the measured window, and stops every
process the cycle started.  End-to-end metrics pool the cycles; per-layer
metrics are the medians over the traced cycles of a ``--trace 1`` run,
which interleaves untraced and traced cycles so the difference between the
two halves is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import math
import pathlib
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Rows per batch of the closed-loop workloads and of the floor runs.
BATCH_ROWS = 64


def use_repo_sources() -> None:
    """Import the program from this checkout's ``src`` (the benchmark runs
    the code under test from source, never an installed copy).  Exits
    non-zero, printing nothing on stdout, when the sources are absent."""
    if not (SRC / "repro").is_dir():
        sys.stderr.write("perfbench: no program sources (src/repro) next to the benchmark\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def integral_weights(graph, rng: np.random.Generator):
    """The graph's skeleton with integral weights in 1..10, so every answer
    (a sum of weights, exact in float64) can be compared for equality."""
    from repro import WeightedDigraph

    weight = rng.integers(1, 11, size=graph.m).astype(np.float64)
    return WeightedDigraph(graph.n, graph.src, graph.dst, weight)


def mu_family(rng: np.random.Generator, *, smoke: bool):
    """The μ=0.5 separator-programmable family (n=2200, or 300 in smoke
    mode) with its programmed tree and integral weights."""
    from repro.workloads.synthetic import separator_programmable_family

    g, tree = separator_programmable_family(300 if smoke else 2200, 0.5, rng)
    return integral_weights(g, rng), tree


def reweight_times(window: float, every_s: float) -> list[float]:
    """Offsets into a window of ``window`` seconds at which to reweight:
    about one per ``every_s`` seconds, at least one, evenly spaced."""
    count = max(1, round(window / every_s))
    return [window * (j + 0.5) / count for j in range(count)]


def sparse_delta(m: int, rng: np.random.Generator, share: float = 0.01):
    """A reweight touching ``share`` of the edges: distinct edge ids and
    their new integral weights."""
    k = max(1, int(round(share * m)))
    edges = np.sort(rng.choice(m, size=k, replace=False)).astype(np.int64)
    return edges, rng.integers(1, 11, size=k).astype(np.float64)


# --------------------------------------------------------------------- #
# The floor: reference answers with no preprocessing
# --------------------------------------------------------------------- #


class Floor:
    """Exact reference distances on G from ``scipy.sparse.csgraph.dijkstra``.

    Parallel edges are reduced by *min* before the matrix is built:
    ``csr_matrix`` sums duplicate entries, which would turn two parallel
    edges of weight 3 and 5 into one of weight 8.
    """

    def __init__(self, n: int, src: np.ndarray, dst: np.ndarray, weight: np.ndarray) -> None:
        self.n = int(n)
        self._key = src.astype(np.int64) * self.n + dst.astype(np.int64)
        self._order = np.argsort(self._key, kind="stable")
        sorted_key = self._key[self._order]
        self._starts = np.flatnonzero(np.r_[True, sorted_key[1:] != sorted_key[:-1]])
        self.pair_key = sorted_key[self._starts]
        self.duplicates = int(src.shape[0] - self.pair_key.shape[0])
        self.weight = np.array(weight, dtype=np.float64)
        self._rebuild()

    def _rebuild(self) -> None:
        from scipy.sparse import csr_matrix

        self.pair_weight = np.minimum.reduceat(self.weight[self._order], self._starts)
        self.matrix = csr_matrix(
            (self.pair_weight, (self.pair_key // self.n, self.pair_key % self.n)),
            shape=(self.n, self.n),
        )

    def reweighted(self, edges: np.ndarray, values: np.ndarray) -> "Floor":
        """The floor after assigning ``values`` to edge ids ``edges``."""
        new = object.__new__(Floor)
        new.__dict__.update(self.__dict__)
        new.weight = self.weight.copy()
        new.weight[edges] = values
        new._rebuild()
        return new

    def rows(self, sources) -> np.ndarray:
        """``(s, n)`` exact distance rows."""
        from scipy.sparse.csgraph import dijkstra

        idx = np.asarray(sources, dtype=np.int64)
        return dijkstra(self.matrix, directed=True, indices=idx)

    def path_weight(self, path: list[int]) -> float | None:
        """Weight of a vertex walk over min-weight parallel edges, or
        ``None`` when some step is not an edge of G."""
        p = np.asarray(path, dtype=np.int64)
        if p.size < 2:
            return 0.0
        keys = p[:-1] * self.n + p[1:]
        pos = np.searchsorted(self.pair_key, keys)
        pos = np.minimum(pos, self.pair_key.shape[0] - 1)
        if not np.array_equal(self.pair_key[pos], keys):
            return None
        return float(self.pair_weight[pos].sum())


def serial_replay(oracle, sources) -> tuple[np.ndarray, float, float]:
    """One batch through ``PhaseSchedule.run`` on the calling thread: the
    rows, the wall (s) and the edge scans per row that the ledger counted."""
    from repro import Ledger
    from repro.kernels.bellman_ford import initial_distances

    dist = initial_distances(oracle.graph.n, sources, oracle.semiring)
    ledger = Ledger()
    t0 = time.perf_counter()
    oracle.schedule.run(dist, ledger=ledger)
    return dist, time.perf_counter() - t0, ledger.work / len(sources)


def floor_layers(graph, floor: Floor, sources, checker: "Checker") -> dict[str, float]:
    """Rows per second of the two floors on G for one batch: scipy's
    Dijkstra (median of 5 calls) and frontier-pruned Bellman–Ford, whose
    rows are checked against it."""
    from repro.kernels.bellman_ford import bellman_ford

    walls = []
    for _ in range(5):
        t0 = time.perf_counter()
        want = floor.rows(sources)
        walls.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    got = bellman_ford(graph, sources)
    bf_wall = time.perf_counter() - t0
    ok = Checker.rows_equal(got, want)
    checker.record(ok=ok, wrong=not ok, why="Bellman-Ford floor differs from scipy")
    return {
        "floor.scipy_rows_per_s": len(sources) / median(walls),
        "floor.bf_rows_per_s": len(sources) / bf_wall,
    }


# --------------------------------------------------------------------- #
# Answer checks
# --------------------------------------------------------------------- #


class Checker:
    """Counts operations, failures and wrong answers for one run.

    ``inject_fault`` corrupts the first batch of rows handed to
    :meth:`corrupt` — the benchmark's own test uses it to prove a wrong
    answer is caught and fails the run.
    """

    def __init__(self, *, inject_fault: bool = False) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        #: the first few failures, described
        self.failures: list[str] = []
        self._inject = inject_fault

    def corrupt(self, rows: np.ndarray) -> np.ndarray:
        """Return ``rows`` unchanged, or — once, under fault injection — a
        copy in which every row has one finite entry off by one (so any
        sample of the rows sees the fault)."""
        if not self._inject:
            return rows
        self._inject = False
        bad = np.array(rows, dtype=np.float64, copy=True)
        for row in bad.reshape(-1, bad.shape[-1]):
            row[np.flatnonzero(np.isfinite(row))[-1]] += 1.0
        return bad

    def record(self, *, ok: bool, wrong: bool = False, why: str = "") -> None:
        """Count one operation; ``ok=False`` is a failure (an error status,
        a missing reply, or a wrong answer — then also ``wrong=True``),
        and ``why`` says what failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(why or ("wrong answer" if wrong else "failed"))
        if wrong:
            self.wrong += 1

    @staticmethod
    def rows_equal(got: np.ndarray, want: np.ndarray) -> bool:
        """Exact equality, unreachable (+inf) entries included."""
        return got.shape == want.shape and bool(np.array_equal(got, want))


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #


@dataclass
class Span:
    """One timed call into a layer: its name, start and end on the
    ``perf_counter`` clock, and the cycle it belongs to."""

    name: str
    start: float
    end: float
    cycle: int


class Tracer:
    """In-memory spans recorded around calls into the program's public
    functions.  Nothing inside the program is changed: :meth:`patch`
    wraps an attribute of a module or class for the duration of a
    ``with`` block and restores it afterwards."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.cycle = 0

    @contextlib.contextmanager
    def patch(self, owner: Any, attr: str, name: str):
        """Record a span named ``name`` around every call of
        ``owner.attr`` (a module function or a plain method)."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.spans.append(Span(name, start, time.perf_counter(), self.cycle))

        setattr(owner, attr, traced)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def durations(self, name: str, cycle: int | None = None) -> list[float]:
        """Durations (s) of the spans named ``name`` (in one cycle, or in
        all)."""
        return [
            s.end - s.start
            for s in self.spans
            if s.name == name and (cycle is None or s.cycle == cycle)
        ]

    def total(self, name: str, cycle: int | None = None) -> float:
        """Summed duration (s) of the spans named ``name``."""
        return float(sum(self.durations(name, cycle)))


@contextlib.contextmanager
def patched(tracer: Tracer, targets: list[tuple[Any, str, str]]):
    """Apply :meth:`Tracer.patch` to every ``(owner, attr, span)`` target."""
    with contextlib.ExitStack() as stack:
        for owner, attr, name in targets:
            stack.enter_context(tracer.patch(owner, attr, name))
        yield


# --------------------------------------------------------------------- #
# Processes
# --------------------------------------------------------------------- #


def _children(pid: int) -> list[int]:
    kids: list[int] = []
    for task in pathlib.Path(f"/proc/{pid}/task").glob("*/children"):
        with contextlib.suppress(OSError):
            kids.extend(int(x) for x in task.read_text().split())
    return kids


def process_tree_peak_mb(pid: int) -> float:
    """Summed peak resident memory (``VmHWM``) of ``pid`` and every live
    descendant, in MiB.  Shared-memory pages count once per process that
    maps them, as the kernel reports them."""
    total_kb = 0
    todo, seen = [pid], set()
    while todo:
        p = todo.pop()
        if p in seen:
            continue
        seen.add(p)
        with contextlib.suppress(OSError):
            for line in pathlib.Path(f"/proc/{p}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
        todo.extend(_children(p))
    return total_kb / 1024.0


# --------------------------------------------------------------------- #
# Cycles and metrics
# --------------------------------------------------------------------- #


@dataclass
class Cycle:
    """Everything one cycle measured."""

    traced: bool
    index: int
    setup_s: float = math.nan
    #: latency (s) of each query operation — a batch, or a served request
    op_latency_s: list[float] = field(default_factory=list)
    rows: int = 0
    #: seconds the rows took: summed batch walls, as the caller (closed
    #: loop) or the server (open loop) timed them
    busy_s: float = 0.0
    ops: int = 0
    #: query operations answered correctly within the workload's limit
    ops_within_limit: int = 0
    reweight_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = math.nan
    #: counts that must repeat exactly from cycle to cycle
    counts: dict[str, float] = field(default_factory=dict)
    #: per-layer values of this cycle (traced cycles only)
    layers: dict[str, float] = field(default_factory=dict)


#: End-to-end metrics: name -> (unit, better).  Every workload reports
#: every one of them; a query *operation* is a 64-source batch on the
#: batch workloads and one request on the serving workloads.  The p90 of
#: the operations is printed but not among them: on a shared 2-CPU host it
#: moved by up to 44% between two sets of ten runs of the same code.
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "rows_per_s": ("1/s", "higher"),
    "ok_frac": ("frac", "higher"),
}

#: Per-layer metrics: name -> unit.  Every workload reports every one; a
#: layer the workload does not exercise reports 0.
PER_LAYER: dict[str, str] = {
    "separators.decompose_s": "s",
    "separators.sep_total": "count",
    "separators.height": "count",
    "eplus.build_s": "s",
    "eplus.edges": "count",
    "schedule.compile_s": "s",
    "schedule.phases": "count",
    "schedule.edge_scans": "count",
    "query.relax_s": "s",
    "query.edge_scans_per_row": "count",
    "pram.publish_s": "s",
    "pram.shared_bytes": "B",
    "pram.parallel_eff": "ratio",
    "server.queue_wait_ms": "ms",
    "server.batch_wall_ms": "ms",
    "server.coalesce_factor": "ratio",
    "server.row_cache_hit_rate": "frac",
    "server.overhead_ms": "ms",
    "client.lateness_p90_ms": "ms",
    "reweight.rpc_p50_ms": "ms",
    "reweight.first_ms": "ms",
    "reweight.replay_s": "s",
    "reweight.flip_s": "s",
    "cache.load_s": "s",
    "shard.start_s": "s",
    "shard.spine_s": "s",
    "shard.legs_s": "s",
    "shard.spine_vertices": "count",
    "shard.spine_phases": "count",
    "floor.scipy_rows_per_s": "1/s",
    "floor.bf_rows_per_s": "1/s",
    "floor.ratio": "ratio",
    "counts.nonrepeating": "count",
    **{f"overhead.{name}": "frac" for name in END_TO_END},
}

#: Counts that should repeat exactly between cycles of one run.
REPEATING_COUNTS = (
    "separators.sep_total",
    "separators.height",
    "eplus.edges",
    "schedule.phases",
    "schedule.edge_scans",
    "shard.spine_vertices",
)


def median(values) -> float:
    """Median of the values that are not nan, or nan when there are none."""
    vals = [float(v) for v in values if v == v]
    return statistics.median(vals) if vals else math.nan


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, or nan on no samples."""
    return float(np.percentile(values, q)) if len(values) else math.nan


def end_to_end(cycles: list[Cycle]) -> dict[str, float]:
    """Pool the cycles into the end-to-end metrics."""
    lat = [x for c in cycles for x in c.op_latency_s]
    busy = sum(c.busy_s for c in cycles)
    ops = sum(c.ops for c in cycles)
    return {
        "setup_s": median(c.setup_s for c in cycles),
        "peak_rss_mb": median(c.peak_rss_mb for c in cycles),
        "op_p50_ms": percentile(lat, 50) * 1e3,
        "rows_per_s": sum(c.rows for c in cycles) / busy if busy else math.nan,
        "ok_frac": sum(c.ops_within_limit for c in cycles) / ops if ops else math.nan,
    }


def nonrepeating_counts(cycles: list[Cycle]) -> dict[str, list[float]]:
    """Counts whose value differed between cycles: name -> values."""
    out = {}
    for name in REPEATING_COUNTS:
        vals = [c.counts[name] for c in cycles if name in c.counts]
        if len(set(vals)) > 1:
            out[name] = vals
    return out


def per_layer(cycles: list[Cycle], run_layers: dict[str, float]) -> dict[str, float]:
    """Medians of the traced cycles' per-layer values, run-level values
    (floors, one-off builds), the tracing overhead and the repeat flag."""
    traced = [c for c in cycles if c.traced]
    plain = [c for c in cycles if not c.traced]
    out = {name: 0.0 for name in PER_LAYER}
    out.update(run_layers)
    for name in PER_LAYER:
        vals = [c.layers[name] for c in traced if name in c.layers]
        if vals:
            out[name] = median(vals)
    e2e_plain, e2e_traced = end_to_end(plain), end_to_end(traced)
    for name in END_TO_END:
        base = e2e_plain[name]
        out[f"overhead.{name}"] = e2e_traced[name] / base - 1.0 if base else 0.0
    rpc = [x for c in traced for x in c.reweight_s]
    if rpc:
        out["reweight.rpc_p50_ms"] = median(rpc) * 1e3
    scipy_rate = out.get("floor.scipy_rows_per_s", 0.0)
    if scipy_rate:
        out["floor.ratio"] = e2e_plain["rows_per_s"] / scipy_rate
    out["counts.nonrepeating"] = float(len(nonrepeating_counts(cycles)))
    return out


def run_cycles(
    start: Callable[[Cycle], Any],
    drive: Callable[[Any, float, Cycle], None],
    stop: Callable[[Any, Cycle], None],
    tracing: Callable[[Tracer], Any],
    *,
    seconds: float,
    cycles: int,
    trace: bool,
    tracer: Tracer,
) -> list[Cycle]:
    """Run the cycles of one workload.

    Untimed runs make ``cycles`` untraced cycles.  Traced runs alternate
    untraced and traced cycles, ``cycles`` of each, so the two halves see
    the same machine state and their difference is the tracing overhead.
    The measured window, ``seconds``, is split evenly over the cycles.
    """
    plan = [False, True] * cycles if trace else [False] * cycles
    window = seconds / len(plan)
    done: list[Cycle] = []
    for i, traced in enumerate(plan):
        cyc = Cycle(traced=traced, index=i)
        tracer.cycle = i
        with tracing(tracer) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            ctx = start(cyc)
            cyc.setup_s = time.perf_counter() - t0
            try:
                drive(ctx, window, cyc)
            finally:
                stop(ctx, cyc)
        done.append(cyc)
    return done
