"""Open-loop serving workload ``mu-serve``: 40 requests/s, so the server
runs every request as its own batch.

The server (:mod:`perfbench.serve_child`) runs in a child process; every
cycle restarts it from the augmentation cache.  One asyncio client on two
connections sends requests on a fixed schedule whatever the replies do:
three in four are single-source ``distances``, one in four a ``path`` to a
uniform target, with sources drawn Zipf(1.3) over a seeded permutation.
Each request is timed from when it was due, so a stall also delays the
requests queued behind it, and the generator's own lateness is reported.
A ``reweight`` assigning new weights to 1% of the edges is due every
``REWEIGHT_EVERY_S`` seconds.

Throughput is the program's own: rows the server answered in the window
divided by the wall its engine batches took, from ``stats`` snapshots at
the start and end of the window (the open loop's offered rate would read
the same whatever a row costs).

Every reply is checked after the window: each distance row equals the
floor's, and each path is a walk of G whose weight equals both the
returned distance and the floor's.  A reply that may straddle a reweight
must match the weights before or after it exactly.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import pathlib
import pickle
import re
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .harness import (
    BATCH_ROWS,
    Checker,
    Cycle,
    Floor,
    floor_layers,
    median,
    mu_family,
    percentile,
    process_tree_peak_mb,
    reweight_times,
    serial_replay,
    sparse_delta,
)

#: Requests per second of the open loop.
RATE = 40.0
#: Seconds between two sparse reweights inside the measured window.
REWEIGHT_EVERY_S = 3.0
#: Latency limit (ms) of one request for ``ok_frac``.
LIMIT_MS = 50.0
#: Share of requests that ask for a path instead of a distance row.
PATH_SHARE = 0.25
ZIPF_EXPONENT = 1.3
CONNECTIONS = 2
#: Seconds to wait for the server to answer its first query, or to stop.
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0
#: Seconds of load before each window, unmeasured, so the row cache and the
#: queue reach their steady state (a restart and the first reweight leave
#: both empty).
WARMUP_S = 1.5
#: Seconds to wait for outstanding replies after the last request.
DRAIN_TIMEOUT_S = 30.0

_HEAD = re.compile(rb'\{"id":(\d+),"ok":(true|false)')


@dataclass
class _Request:
    due: float
    op: str
    source: int
    target: int = -1
    sent: float = float("nan")
    received: float = float("nan")
    ok: bool = False
    line: bytes = b""
    #: inside the measured window (not warm-up)
    measured: bool = True


@dataclass
class _Reweight:
    due: float
    edges: np.ndarray
    values: np.ndarray
    sent: float = float("nan")
    received: float = float("nan")
    ok: bool = False
    line: bytes = b""


@dataclass
class _Ctx:
    proc: subprocess.Popen
    socket: str
    info_path: pathlib.Path
    requests: list[_Request] = field(default_factory=list)
    reweights: list[_Reweight] = field(default_factory=list)
    #: the server's ``stats`` at the start and at the end of the window
    stats_start: dict[str, Any] = field(default_factory=dict)
    stats: dict[str, Any] = field(default_factory=dict)


def _served(stats: dict[str, Any]) -> tuple[int, float]:
    """Rows the server has answered and the summed wall (s) of its engine
    batches, from one ``stats`` reply."""
    server = stats["server"]
    walls = server["batch_wall_s"]
    return server["rows_total"], walls["count"] * walls["mean"] if walls["count"] else 0.0


class MuServe:
    """``OracleServer`` over the μ=0.5 family (n=2200, programmed tree),
    ``shm:2`` engine with a 256-row cache and default coalescing."""

    limit_ms = LIMIT_MS
    #: restarts per run (see ``BatchWorkload.cycles``)
    cycles = 5

    def __init__(self, seed: int, *, smoke: bool, checker: Checker,
                 workdir: pathlib.Path) -> None:
        from repro import OracleConfig, ShortestPathOracle

        self.seed = int(seed)
        self.checker = checker
        self.workdir = workdir
        self.graph, self.tree = mu_family(np.random.default_rng([self.seed, 0]), smoke=smoke)
        self.floor = Floor(self.graph.n, self.graph.src, self.graph.dst, self.graph.weight)
        g = self.graph
        np.savez(workdir / "graph.npz", n=g.n, src=g.src, dst=g.dst, weight=g.weight)
        with open(workdir / "tree.pkl", "wb") as fh:
            pickle.dump(self.tree, fh)
        # The untimed cold build that fills the augmentation store every
        # restart then loads from.
        self.oracle = ShortestPathOracle.build(
            g, self.tree, config=OracleConfig(cache="readwrite", cache_dir=str(workdir / "cache"))
        )
        perm = np.random.default_rng([self.seed, 3]).permutation(g.n)
        p = np.arange(1, g.n + 1, dtype=np.float64) ** -ZIPF_EXPONENT
        self._ranked = perm
        self._zipf = p / p.sum()

    # ---- cycle protocol ------------------------------------------------ #

    def tracing(self, tracer):
        # The layers run in the server process, which records its own spans.
        return contextlib.nullcontext()

    def start(self, cyc: Cycle) -> _Ctx:
        sock = os.path.relpath(self.workdir / f"s{cyc.index}.sock")
        info = self.workdir / f"info{cyc.index}.json"
        cmd = [
            sys.executable, str(pathlib.Path(__file__).with_name("serve_child.py")),
            "--inputs", str(self.workdir), "--socket", sock, "--info", str(info),
        ]
        if cyc.traced:
            cmd.append("--trace")
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        ctx = _Ctx(proc, sock, info)
        try:
            self._first_query(ctx)
        except BaseException:
            self._shutdown(ctx)
            raise
        return ctx

    def _first_query(self, ctx: _Ctx) -> None:
        """Block until the server answers one ``distances`` request."""
        deadline = time.perf_counter() + START_TIMEOUT_S
        source = self.graph.n // 2
        while True:
            if ctx.proc.poll() is not None:
                raise RuntimeError(f"server exited with code {ctx.proc.returncode}")
            try:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                    s.connect(ctx.socket)
                    s.sendall(json.dumps(
                        {"id": 0, "op": "distances", "sources": [source]}
                    ).encode() + b"\n")
                    with s.makefile("rb") as fh:
                        reply = json.loads(fh.readline())
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.002)
        ok = bool(reply.get("ok")) and Checker.rows_equal(
            np.asarray(reply["result"]["distances"], dtype=np.float64),
            self.floor.rows([source]),
        )
        self.checker.record(ok=ok, wrong=bool(reply.get("ok")) and not ok)

    def drive(self, ctx: _Ctx, window: float, cyc: Cycle) -> None:
        rng = np.random.default_rng([self.seed, 1, cyc.index])
        asyncio.run(self._load(ctx, window, cyc, rng))
        self._verify(ctx, cyc)
        (rows0, wall0), (rows1, wall1) = _served(ctx.stats_start), _served(ctx.stats)
        cyc.rows += rows1 - rows0
        cyc.busy_s += wall1 - wall0

    def stop(self, ctx: _Ctx, cyc: Cycle) -> None:
        try:
            cyc.peak_rss_mb = process_tree_peak_mb(ctx.proc.pid)
        finally:
            self._shutdown(ctx)
        info = json.loads(ctx.info_path.read_text())
        if info.get("cache_status") != "hit":
            raise RuntimeError(f"server restart missed the augmentation cache: {info!r}")
        cyc.counts.update(info["counts"])
        if cyc.traced:
            self._layers(ctx, cyc, info)

    def _shutdown(self, ctx: _Ctx) -> None:
        """SIGTERM (the server drains and closes its pool), then wait."""
        if ctx.proc.poll() is None:
            ctx.proc.send_signal(signal.SIGTERM)
            try:
                ctx.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                ctx.proc.kill()
                ctx.proc.wait()
        if os.path.exists(ctx.socket):
            os.unlink(ctx.socket)

    # ---- the open loop -------------------------------------------------- #

    def _schedule(self, window: float, rng: np.random.Generator, t0: float):
        """Requests due from ``t0`` (warm-up, then the window) and the
        reweights due inside the window."""
        count = max(1, int(round(RATE * (WARMUP_S + window))))
        due = t0 + np.arange(count) / RATE
        sources = self._ranked[rng.choice(self.graph.n, size=count, p=self._zipf)]
        is_path = rng.random(count) < PATH_SHARE
        targets = rng.integers(0, self.graph.n, size=count)
        requests = [
            _Request(float(d), "path" if p else "distances", int(s), int(t) if p else -1)
            for d, p, s, t in zip(due, is_path, sources, targets)
        ]
        for rec in requests:
            rec.measured = rec.due >= t0 + WARMUP_S
        reweights = [
            _Reweight(t0 + WARMUP_S + off, *sparse_delta(self.graph.m, rng))
            for off in reweight_times(window, REWEIGHT_EVERY_S)
        ]
        return requests, reweights

    async def _load(self, ctx: _Ctx, window: float, cyc: Cycle, rng) -> None:
        conns = [
            await asyncio.open_unix_connection(ctx.socket, limit=16 << 20)
            for _ in range(CONNECTIONS)
        ]
        waiting: dict[int, tuple[Any, asyncio.Future]] = {}
        loop = asyncio.get_running_loop()
        next_id = iter(range(1, 1 << 62))

        async def read(reader) -> None:
            while True:
                line = await reader.readline()
                if not line:
                    return
                now = time.perf_counter()
                head = _HEAD.match(line)
                rid = int(head.group(1)) if head else json.loads(line).get("id")
                rec, fut = waiting.pop(rid)
                rec.received = now
                rec.ok = head is not None and head.group(2) == b"true"
                rec.line = line
                fut.set_result(None)

        def send(conn, rec, payload: dict) -> asyncio.Future:
            rid = next(next_id)
            fut = loop.create_future()
            waiting[rid] = (rec, fut)
            rec.sent = time.perf_counter()
            conn[1].write(json.dumps({"id": rid, **payload}).encode() + b"\n")
            return fut

        async def until(t: float) -> None:
            delay = t - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)

        def reweight_payload(rw: _Reweight) -> dict:
            return {"op": "reweight", "delta": {
                "edges": rw.edges.tolist(), "weights": rw.values.tolist()}}

        readers = [asyncio.create_task(read(r)) for r, _ in conns]
        try:
            # The first reweight after a start captures the build
            # provenance: set-up work, so it runs before the window.
            first = _Reweight(time.perf_counter(), *sparse_delta(self.graph.m, rng))
            await asyncio.wait_for(send(conns[0], first, reweight_payload(first)), DRAIN_TIMEOUT_S)
            cyc.layers["reweight.first_ms"] = (first.received - first.due) * 1e3
            ctx.reweights.append(first)

            requests, reweights = self._schedule(window, rng, time.perf_counter() + 0.01)
            ctx.requests, pending = requests, []

            async def send_requests() -> None:
                for i, rec in enumerate(requests):
                    await until(rec.due)
                    payload = ({"op": "path", "source": rec.source, "target": rec.target}
                               if rec.op == "path" else
                               {"op": "distances", "sources": [rec.source]})
                    pending.append(send(conns[i % CONNECTIONS], rec, payload))

            async def stats_at(t: float) -> dict:
                await until(t)
                rec = _Request(t, "stats", -1)
                await asyncio.wait_for(send(conns[0], rec, {"op": "stats"}), DRAIN_TIMEOUT_S)
                return json.loads(rec.line)["result"]

            async def send_reweights() -> None:
                for rw in reweights:
                    await until(rw.due)
                    ctx.reweights.append(rw)
                    await asyncio.wait([send(conns[0], rw, reweight_payload(rw))],
                                       timeout=DRAIN_TIMEOUT_S)

            ctx.stats_start, *_ = await asyncio.gather(
                stats_at(requests[0].due + WARMUP_S), send_requests(), send_reweights())
            await asyncio.wait(pending, timeout=DRAIN_TIMEOUT_S)
            ctx.stats = await stats_at(time.perf_counter())
        finally:
            for _, writer in conns:
                writer.close()
            for task in readers:
                task.cancel()
            await asyncio.gather(*readers, return_exceptions=True)
            for _, writer in conns:
                try:
                    await writer.wait_closed()
                except OSError:
                    pass

    # ---- answer checks -------------------------------------------------- #

    def _verify(self, ctx: _Ctx, cyc: Cycle) -> None:
        """Check every reply against the floor of each weights epoch that
        was in force at some instant between its send and its reply."""
        floors = [self.floor]
        for rw in ctx.reweights:
            self.checker.record(ok=rw.ok, why=f"reweight: {rw.line[:200]!r}")
            floors.append(floors[-1].reweighted(rw.edges, rw.values))
        # Epoch e (after reweight e-1) may be live from that reweight's send
        # until the reply to the next one.
        live_from = [-np.inf] + [rw.sent for rw in ctx.reweights]
        live_to = [rw.received for rw in ctx.reweights] + [np.inf]
        cyc.reweight_s.extend(rw.received - rw.due for rw in ctx.reweights[1:])

        epochs = []
        for rec in ctx.requests:
            epochs.append([
                e for e in range(len(floors))
                if rec.sent < live_to[e] and rec.received > live_from[e]
            ])
        want_rows: dict[tuple[int, int], np.ndarray] = {}
        for e in range(len(floors)):
            srcs = sorted({r.source for r, es in zip(ctx.requests, epochs) if e in es})
            if srcs:
                for s, row in zip(srcs, floors[e].rows(srcs)):
                    want_rows[(e, s)] = row

        measured = [rec for rec in ctx.requests if rec.measured]
        latencies = []
        for rec, es in zip(ctx.requests, epochs):
            if not rec.ok or rec.received != rec.received:
                self.checker.record(ok=False, why=f"{rec.op}: {rec.line[:200]!r}")
                continue
            result = json.loads(rec.line)["result"]
            if rec.op == "distances":
                got = self.checker.corrupt(np.asarray(result["distances"][0], dtype=np.float64))
                right = any(Checker.rows_equal(got, want_rows[(e, rec.source)]) for e in es)
            else:
                right = any(
                    self._path_ok(result, rec, floors[e], want_rows[(e, rec.source)])
                    for e in es
                )
            self.checker.record(ok=right, wrong=not right)
            if not rec.measured:
                continue
            latency = rec.received - rec.due
            latencies.append(latency)
            cyc.ops_within_limit += int(right and latency * 1e3 <= self.limit_ms)
        cyc.ops += len(measured)
        cyc.op_latency_s.extend(latencies)
        cyc.layers["client.lateness_p90_ms"] = percentile(
            [r.sent - r.due for r in measured], 90) * 1e3

    @staticmethod
    def _path_ok(result: dict, rec: _Request, floor: Floor, want: np.ndarray) -> bool:
        path, dist = result["path"], float(result["distance"])
        expected = float(want[rec.target])
        if path is None:
            return dist == expected == np.inf
        if path[0] != rec.source or path[-1] != rec.target:
            return False
        return floor.path_weight(path) == dist == expected

    # ---- per-layer values ---------------------------------------------- #

    def _layers(self, ctx: _Ctx, cyc: Cycle, info: dict) -> None:
        server = ctx.stats["server"]
        spans = info["spans"]
        cyc.layers.update(cyc.counts)
        cyc.layers.update({
            "cache.load_s": float(sum(spans["cache.load"])),
            "schedule.compile_s": float(sum(spans["schedule.compile"])),
            "pram.publish_s": float(info["publish_s"]),
            "pram.shared_bytes": float(ctx.stats["engine"]["shared_bytes"]),
            "server.queue_wait_ms": server["queue_wait_s"]["p50"] * 1e3,
            "server.batch_wall_ms": server["batch_wall_s"]["p50"] * 1e3,
            "server.coalesce_factor": float(server["coalesce_factor"]),
            "server.row_cache_hit_rate": float(server["row_cache_hit_rate"]),
            "server.overhead_ms": (
                percentile(cyc.op_latency_s, 50) - server["request_latency_s"]["p50"]
            ) * 1e3,
        })
        for layer, span in (("reweight.replay_s", "reweight.replay"),
                            ("reweight.flip_s", "reweight.flip")):
            walls = spans[span][1:]  # skip the provenance-capturing first one
            if walls:
                cyc.layers[layer] = median(walls)

    def run_layers(self) -> dict[str, float]:
        """The floors, and a serial replay of one 64-source batch on the
        cold-built oracle (the relaxation every served row pays)."""
        sources = np.random.default_rng([self.seed, 2]).integers(0, self.graph.n, BATCH_ROWS)
        out = floor_layers(self.graph, self.floor, sources, self.checker)
        rows, relax, scans = serial_replay(self.oracle, sources)
        ok = Checker.rows_equal(rows, self.floor.rows(sources))
        self.checker.record(ok=ok, wrong=not ok)
        out.update({"query.relax_s": relax, "query.edge_scans_per_row": scans})
        return out

    def close(self) -> None:
        self.oracle.close()
