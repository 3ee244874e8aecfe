"""Integration tests of the async batched query server (:mod:`repro.server`):
correctness against the in-process oracle, coalescing, backpressure (shed),
timeouts, graceful shutdown without shm leaks, and the save/load → serve
round trip.

The server runs its event loop in a background thread; tests talk to it
through the blocking :class:`~repro.server.OracleClient` over a unix socket
in ``tmp_path`` — exactly the deployment shape of ``repro-spsp serve``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro import OracleConfig, ShortestPathOracle
from repro.core.protocols import SERVING_STATS_KEYS, ServingBackend, serving_stats
from repro.pram.shm import orphaned_segments
from repro.server import OracleClient, OracleServer, ServerConfig, ServerError

SERIAL = OracleConfig(executor="serial")


@pytest.fixture
def oracle(grid6_negative):
    g, tree = grid6_negative
    return ShortestPathOracle.build(g, tree)


class _SlowEngine:
    """A minimal :class:`ServingBackend`: one serialized worker with a
    fixed per-row cost.  Overload behavior built on it is reproducible on
    any machine — the real engine is too fast on a 36-vertex graph to
    congest a queue deterministically."""

    def __init__(self, n: int, row_s: float = 0.02) -> None:
        self.n = int(n)
        self.row_s = float(row_s)
        self.weights_epoch = 0
        self._lock = threading.Lock()

    def submit(self, sources):
        rows = int(np.asarray(sources).shape[0])
        with self._lock:
            time.sleep(self.row_s * rows)
        return np.zeros((rows, self.n)), {
            "rows": rows, "shards": 1, "wall_s": self.row_s * rows,
        }

    def query(self, sources):
        return self.submit(sources)[0]

    def stats(self):
        return serving_stats(
            backend="slow-fake", workers=1, queue_depth=0, weights_epoch=0,
            queries_served=0, rows_served=0,
        )

    def reweight(self, *args, **kwargs):  # pragma: no cover - never called
        raise NotImplementedError

    def close(self):
        pass


@contextlib.contextmanager
def serving(oracle, tmp_path, engine_cfg=SERIAL, engine_factory=None, **server_kw):
    """Run an :class:`OracleServer` on a background event loop; yield
    ``(socket path, server)``; always drain + stop on exit."""
    sock = str(tmp_path / "oracle.sock")
    server = OracleServer(
        oracle, engine_cfg, ServerConfig(path=sock, **server_kw),
        engine_factory=engine_factory,
    )
    loop = asyncio.new_event_loop()
    started = threading.Event()

    async def main():
        await server.start()
        started.set()
        await server.serve_forever()

    def run():
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(20), "server failed to start"
    try:
        yield sock, server
    finally:
        loop.call_soon_threadsafe(server.request_shutdown)
        thread.join(20)
        assert not thread.is_alive(), "server failed to stop"


class TestCorrectness:
    def test_distances_match_inprocess(self, oracle, tmp_path):
        srcs = [0, 7, 35]
        want = oracle.distances(srcs)
        with serving(oracle, tmp_path) as (sock, _):
            with OracleClient(sock) as c:
                got = c.distances(srcs)
                single = c.distances(7)
        assert np.array_equal(got, want)
        assert np.array_equal(single, want[1])

    def test_nearest_source_and_path_match_oracle(self, oracle, tmp_path):
        with serving(oracle, tmp_path) as (sock, _):
            with OracleClient(sock) as c:
                assigned, dist = c.nearest_source([0, 20])
                path, d = c.path_with_distance(0, 35)
        want_assigned, want_dist = oracle.nearest_source([0, 20])
        assert np.array_equal(assigned, want_assigned)
        assert np.allclose(dist, want_dist)
        assert path == oracle.path(0, 35)
        assert d == pytest.approx(oracle.distance(0, 35))

    def test_save_load_serve_round_trip(self, oracle, tmp_path):
        """Persist → load → serve must answer exactly like the original."""
        npz = tmp_path / "oracle.npz"
        oracle.save(npz)
        loaded = ShortestPathOracle.load(npz)
        want = oracle.distances([0, 13])
        with serving(loaded, tmp_path) as (sock, _):
            with OracleClient(sock) as c:
                got = c.distances([0, 13])
        assert np.array_equal(got, want)

    def test_bad_requests_get_400(self, oracle, tmp_path):
        with serving(oracle, tmp_path) as (sock, _):
            with OracleClient(sock) as c:
                with pytest.raises(ServerError) as err:
                    c.distances([10**6])  # out of range
                assert err.value.code == 400
                with pytest.raises(ServerError) as err:
                    c._call("teleport")
                assert err.value.code == 400
                assert c.ping()  # connection survives rejected requests

    def test_malformed_line_is_answered_not_fatal(self, oracle, tmp_path):
        with serving(oracle, tmp_path) as (sock, _):
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            s.connect(sock)
            s.settimeout(10)
            f = s.makefile("rwb")
            f.write(b"this is not json\n")
            f.flush()
            resp = json.loads(f.readline())
            assert resp["ok"] is False and resp["code"] == 400
            s.close()


class TestCoalescing:
    def test_concurrent_requests_share_a_batch(self, oracle, tmp_path):
        """≥2 of 4 simultaneous single-source requests must land in one
        engine batch when they arrive within the coalescing window."""
        n_clients = 4
        with serving(oracle, tmp_path, max_wait_us=300_000) as (sock, server):
            clients = [OracleClient(sock) for _ in range(n_clients)]
            barrier = threading.Barrier(n_clients)
            results = [None] * n_clients

            def worker(i):
                barrier.wait()
                results[i] = clients[i].distances([i])

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(20)
            for c in clients:
                c.close()
            snap = server.metrics.snapshot()
        want = oracle.distances(list(range(n_clients)))
        for i in range(n_clients):
            assert np.array_equal(results[i][0], want[i])
        assert snap["max_coalesce"] >= 2, snap
        assert snap["batches_total"] < n_clients, snap
        assert snap["coalesce_factor"] > 1.0, snap

    def test_zero_wait_disables_coalescing(self, oracle, tmp_path):
        with serving(oracle, tmp_path, max_wait_us=0) as (sock, server):
            with OracleClient(sock) as c:
                c.distances([0])
                c.distances([1])
            snap = server.metrics.snapshot()
        assert snap["batches_total"] == 2
        assert snap["coalesce_factor"] == 1.0

    def test_stats_expose_batch_shape(self, oracle, tmp_path):
        with serving(oracle, tmp_path) as (sock, _):
            with OracleClient(sock) as c:
                c.distances([0, 1, 2])
                stats = c.stats()
        assert stats["engine"]["last_batch"]["rows"] == 3
        for key in ("coalesce_factor", "shard_fanout", "queue_wait_s",
                    "batch_wall_s", "request_latency_s"):
            assert key in stats["server"]
        assert stats["server"]["request_latency_s"]["p99"] >= 0

    def test_stats_carry_canonical_serving_schema(self, oracle, tmp_path):
        """Satellite: one stats schema across tiers.  The served engine's
        block carries every :data:`SERVING_STATS_KEYS` key, the old keys
        survive as deprecated aliases, and the admission block is
        published alongside."""
        with serving(oracle, tmp_path) as (sock, _):
            with OracleClient(sock) as c:
                c.distances([0, 1])
                stats = c.stats()
        eng = stats["engine"]
        for key in SERVING_STATS_KEYS:
            assert key in eng, key
        assert eng["backend"] == "serial"
        assert eng["weights_epoch"] == 0
        assert {"p50", "p99"} <= set(eng["queue_wait_ms"])
        assert eng["rows_served"] == 2
        # deprecated aliases kept for one release
        assert "engine" in eng and "phases" in eng
        adm = stats["admission"]
        assert set(adm) == {
            "queue_limit", "pending_rows", "ema_row_ms", "shed_early_total",
        }
        assert adm["queue_limit"] >= 1
        assert adm["ema_row_ms"] > 0.0  # EMA primed by the first batch
        assert adm["shed_early_total"] == 0


class TestDegradation:
    def test_timeout_answers_504(self, oracle, tmp_path):
        """A request whose deadline is shorter than the coalescing window
        gets a timeout response (the batch still completes server-side)."""
        with serving(oracle, tmp_path, max_wait_us=500_000) as (sock, server):
            with OracleClient(sock) as c:
                c.timeout = 0.02  # timeout_ms sent with the request
                with pytest.raises(ServerError) as err:
                    c.distances([0])
                assert err.value.code == 504
            snap = server.metrics.snapshot()
        assert snap["timeout_total"] == 1

    def test_overload_sheds_429(self, oracle, tmp_path):
        """Beyond queue_limit admitted requests, new ones are shed."""
        with serving(
            oracle, tmp_path, max_wait_us=500_000, queue_limit=1
        ) as (sock, server):
            admitted = OracleClient(sock)
            t = threading.Thread(target=lambda: admitted.distances([0]))
            t.start()
            # Wait until the first request is admitted into the window.
            for _ in range(200):
                if server._pending >= 1:
                    break
                threading.Event().wait(0.005)
            with OracleClient(sock) as c:
                with pytest.raises(ServerError) as err:
                    c.distances([1])
            assert err.value.code == 429
            t.join(20)
            admitted.close()
            snap = server.metrics.snapshot()
        assert snap["shed_total"] == 1
        assert snap["requests_total"] >= 2


class TestAdmission:
    """Admission control (tentpole): the server sheds 429 *early* — before
    a request can occupy a queue slot it cannot convert into an on-deadline
    answer — and served latency stays flat under overload."""

    def test_engine_factory_must_satisfy_protocol(self, oracle, tmp_path):
        """Satellite: startup type-checks the engine and names the missing
        methods, instead of a mid-request AttributeError."""

        class NotAnEngine:
            def submit(self, sources):  # pragma: no cover - never called
                raise NotImplementedError

            def stats(self):  # pragma: no cover - never called
                return {}

            def close(self):  # pragma: no cover - never called
                pass

        server = OracleServer(
            oracle, SERIAL, ServerConfig(path=str(tmp_path / "bad.sock")),
            engine_factory=NotAnEngine,
        )
        with pytest.raises(TypeError) as err:
            asyncio.run(server.start())
        msg = str(err.value)
        assert "engine_factory result" in msg and "NotAnEngine" in msg
        for missing in ("query", "reweight", "weights_epoch"):
            assert missing in msg

    @staticmethod
    def _closed_loop(sock, n_clients, reqs_each):
        """``n_clients`` blocking clients, ``reqs_each`` two-row requests
        each; returns (served latencies [s], shed count)."""
        latencies, sheds, errors = [], [], []
        lock = threading.Lock()

        def worker():
            try:
                with OracleClient(sock, timeout=30.0, retries=0) as c:
                    for _ in range(reqs_each):
                        t0 = time.perf_counter()
                        try:
                            c.distances([0, 1])
                        except ServerError as err:
                            assert err.code == 429, err
                            with lock:
                                sheds.append(1)
                        else:
                            with lock:
                                latencies.append(time.perf_counter() - t0)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        assert not errors, errors
        return latencies, len(sheds)

    def test_overload_sheds_429_and_served_p99_stays_flat(self, oracle, tmp_path):
        """Acceptance: at ~4x capacity with ``admission_queue_limit`` set,
        requests are shed with 429 and the p99 of *served* requests stays
        within 1.5x the uncontended p99 (the queue never grows past what
        fits inside a deadline)."""
        factory = lambda: _SlowEngine(oracle.graph.n, row_s=0.02)  # noqa: E731
        assert isinstance(factory(), ServingBackend)
        # Uncontended baseline: as many clients as queue slots.
        with serving(
            oracle, tmp_path, engine_factory=factory, max_wait_us=0
        ) as (sock, server):
            base_lat, base_sheds = self._closed_loop(sock, n_clients=4, reqs_each=3)
        assert base_sheds == 0 and len(base_lat) == 12
        base_p99 = float(np.percentile(base_lat, 99))
        # Overload: 4x the clients, queue capped at 4 admitted requests.
        cfg = SERIAL.replace(admission_queue_limit=4)
        with serving(
            oracle, tmp_path, engine_cfg=cfg, engine_factory=factory, max_wait_us=0
        ) as (sock, server):
            over_lat, over_sheds = self._closed_loop(sock, n_clients=16, reqs_each=3)
            snap = server.metrics.snapshot()
        assert over_sheds > 0, "overload never shed"
        assert snap["shed_total"] == over_sheds
        assert over_lat, "overload served nothing"
        over_p99 = float(np.percentile(over_lat, 99))
        assert over_p99 <= 1.5 * base_p99, (
            f"served p99 degraded under overload: {over_p99:.3f}s vs "
            f"uncontended {base_p99:.3f}s"
        )

    def test_predictive_shed_beats_the_deadline(self, oracle, tmp_path):
        """A request whose *predicted* queue wait exceeds its own deadline
        is refused immediately (429, counted as shed_early) instead of
        being admitted only to time out (504) after burning a slot."""
        factory = lambda: _SlowEngine(oracle.graph.n, row_s=0.05)  # noqa: E731
        with serving(
            oracle, tmp_path, engine_factory=factory, max_wait_us=0
        ) as (sock, server):
            with OracleClient(sock, timeout=30.0) as c:
                c.distances([0])  # primes the per-row EMA at ~50 ms/row
            backlog = OracleClient(sock, timeout=30.0)
            t = threading.Thread(target=lambda: backlog.distances(list(range(6))))
            t.start()
            for _ in range(400):  # wait until the 6-row backlog is admitted
                if server._pending_rows >= 6:
                    break
                time.sleep(0.005)
            assert server._pending_rows >= 6
            t_shed = time.perf_counter()
            with OracleClient(sock, timeout=0.05) as c:  # 50 ms deadline
                with pytest.raises(ServerError) as err:
                    c.distances([1])
            shed_s = time.perf_counter() - t_shed
            assert err.value.code == 429
            assert "admission control" in str(err.value)
            assert shed_s < 0.05, f"shed took {shed_s:.3f}s — not early"
            t.join(30)
            backlog.close()
            snap = server.metrics.snapshot()
        assert snap["shed_early_total"] >= 1
        assert snap["shed_total"] >= snap["shed_early_total"]
        assert snap["timeout_total"] == 0


class TestShutdown:
    def test_clean_shutdown_no_shm_leak_serial(self, oracle, tmp_path):
        with serving(oracle, tmp_path) as (sock, _):
            with OracleClient(sock) as c:
                c.distances([0])
        assert orphaned_segments() == []

    @pytest.mark.multiproc
    def test_clean_shutdown_no_shm_leak_shm_backend(self, oracle, tmp_path):
        """The heavy path: shm pool + published arena; shutdown must drain
        and unlink every segment (tools/check_shm_leaks.py invariant)."""
        cfg = OracleConfig(executor="shm:2")
        want = oracle.distances(np.arange(8))
        with serving(oracle, tmp_path, engine_cfg=cfg) as (sock, server):
            with OracleClient(sock) as c:
                got = c.distances(list(range(8)))
            assert server.engine.stats()["backend"] == "shm"
        assert np.array_equal(got, want)
        assert orphaned_segments() == []

    def test_shutdown_closes_oracle_warm_start_arena(self, grid6_negative, tmp_path):
        """Regression: stop() must close the *oracle* too, not only the
        engine.  A cache-hit build destined for the shm backend loads its
        augmentation into a warm-start arena owned by the oracle; before
        the fix, shutdown left that arena's segments in /dev/shm until GC.
        """
        g, tree = grid6_negative
        store = str(tmp_path / "store")
        # build #1 populates the store; build #2 is an arena-backed hit
        ShortestPathOracle.build(
            g, tree, config=OracleConfig(cache="readwrite", cache_dir=store)
        )
        oracle = ShortestPathOracle.build(
            g, tree,
            config=OracleConfig(cache="read", cache_dir=store, executor="shm:2"),
        )
        assert oracle.cache_info["status"] == "hit"
        assert oracle.cache_info["arena_backed"] is True
        assert orphaned_segments() != []  # the warm-start arena is live
        want = oracle.distances([0, 7])
        with serving(oracle, tmp_path) as (sock, _):  # serial engine
            with OracleClient(sock) as c:
                got = c.distances([0, 7])
        assert np.array_equal(got, want)
        assert orphaned_segments() == []  # oracle arena unlinked by stop()

    def test_requests_after_drain_rejected(self, oracle, tmp_path):
        with serving(oracle, tmp_path) as (sock, server):
            with OracleClient(sock) as c:
                c.distances([0])
            server._draining = True  # simulate shutdown having begun
            with OracleClient(sock) as c:
                with pytest.raises(ServerError) as err:
                    c.distances([1])
                assert err.value.code == 503
            server._draining = False  # let the context manager stop cleanly


class TestReweightRPC:
    """The zero-downtime ``reweight`` op: served distances flip to the new
    weights epoch, stats surface the epoch counters, malformed payloads
    get 400s, and path reconstruction follows the *current* weights."""

    def test_dense_then_delta(self, grid6_negative, tmp_path):
        g, tree = grid6_negative
        oracle = ShortestPathOracle.build(g, tree)
        srcs = [0, 7, 35]
        w2 = np.abs(g.weight) + 1.0
        want2 = ShortestPathOracle.build(
            type(g)(g.n, g.src, g.dst, w2), tree
        ).distances(srcs)
        w3 = w2.copy()
        w3[[2, 9]] = [40.0, 0.25]
        want3 = ShortestPathOracle.build(
            type(g)(g.n, g.src, g.dst, w3), tree
        ).distances(srcs)
        cfg = SERIAL.replace(row_cache=16)
        with serving(oracle, tmp_path, engine_cfg=cfg) as (sock, server):
            with OracleClient(sock) as c:
                c.distances(srcs)  # warm the row LRU on epoch 0
                res = c.reweight(w2)
                assert res["weights_epoch"] == 1 and res["mode"] == "engine"
                assert np.array_equal(c.distances(srcs), want2)
                res = c.reweight(delta={2: 40.0, 9: 0.25})
                assert res["weights_epoch"] == 2
                assert np.array_equal(c.distances(srcs), want3)
                st = c.stats()
                assert st["engine"]["weights_epoch"] == 2
                assert st["engine"]["reweights"] == 2
                assert st["engine"]["row_cache"]["epoch_invalidations"] == 2
                # Path reconstruction must walk the *reweighted* graph.
                path, dist = c.path_with_distance(0, 35)
                assert path is not None and dist == want3[0][35]

    @pytest.mark.parametrize("window", ["after_submit", "after_flip"])
    def test_path_walks_the_graph_of_its_batch_epoch(
        self, grid6_negative, tmp_path, window
    ):
        """Regression: a reweight that lands between a path batch's
        ``engine.submit`` and its path reconstruction (``after_submit``),
        or between the engine flip and the server's graph swap
        (``after_flip``), must not pair rows of one weights epoch with the
        graph of another.  Each window is forced with a hook, not a sleep:
        the path's edge weights must sum to the returned distance, on the
        weights of the epoch that distance comes from."""
        g, tree = grid6_negative
        oracle = ShortestPathOracle.build(g, tree)
        w2 = np.abs(g.weight) + 1.0
        g2 = type(g)(g.n, g.src, g.dst, w2)
        hooks: list = []

        def factory():
            eng = oracle.query_engine(SERIAL)
            inner = eng.submit if window == "after_submit" else eng.reweight

            def hooked(*args):
                out = inner(*args)
                if hooks:
                    hooks.pop()()
                return out

            if window == "after_submit":
                eng.submit = hooked
            else:
                eng.reweight = hooked
            return eng

        answers: list = []
        with serving(oracle, tmp_path, engine_factory=factory) as (sock, server):
            with OracleClient(sock) as c, OracleClient(sock) as c2:
                if window == "after_submit":
                    # The path batch's rows are epoch 0; the reweight then
                    # completes before its answer is postprocessed.
                    hooks.append(lambda: server._reweight_sync(w2, None, None))
                    answers.append(c.path_with_distance(0, 35))
                    want_graph = g
                else:
                    # The engine already serves epoch 1 while the server
                    # has not swapped its graph yet; a path request is
                    # answered end to end inside that window.
                    hooks.append(lambda: answers.append(c2.path_with_distance(0, 35)))
                    assert c.reweight(w2)["weights_epoch"] == 1
                    want_graph = g2
                assert not hooks, "the reweight window was never hit"
        (path, dist), = answers
        want = ShortestPathOracle.build(want_graph, tree).distances([0])[0][35]
        assert dist == want
        edge_w: dict = {}
        for u, v, w in zip(want_graph.src, want_graph.dst, want_graph.weight):
            edge_w[(int(u), int(v))] = min(w, edge_w.get((int(u), int(v)), np.inf))
        assert path[0] == 0 and path[-1] == 35
        assert np.isclose(sum(edge_w[e] for e in zip(path, path[1:])), dist)

    def test_bad_payloads_get_400(self, grid6_negative, tmp_path):
        g, tree = grid6_negative
        oracle = ShortestPathOracle.build(g, tree)
        with serving(oracle, tmp_path) as (sock, _):
            with OracleClient(sock) as c:
                for bad in (
                    dict(weight=[1.0, 2.0]),                      # wrong length
                    dict(weight=list(g.weight), delta={"edges": [0], "weights": [1]}),
                    dict(delta={"edges": [0, 1], "weights": [1.0]}),  # ragged
                    dict(delta={"edges": [g.m + 5], "weights": [1.0]}),  # range
                    dict(),                                       # neither
                ):
                    with pytest.raises(ServerError) as err:
                        c._call("reweight", **bad)
                    assert err.value.code == 400
                # ... and the server still serves afterwards.
                assert c.ping()


class TestSmoke:
    def test_50_mixed_requests_smoke(self, oracle, tmp_path):
        """CI fast-lane smoke: 50 mixed requests from 5 concurrent clients
        over a unix socket, every answer well-formed, clean shutdown."""
        n = oracle.graph.n
        rng = np.random.default_rng(0)
        errors = []

        def worker(seed):
            r = np.random.default_rng(seed)
            try:
                with OracleClient(sock) as c:
                    for i in range(10):
                        kind = i % 5
                        if kind == 0:
                            assert c.ping()
                        elif kind == 1:
                            d = c.distances([int(r.integers(n))])
                            assert d.shape == (1, n)
                        elif kind == 2:
                            srcs = r.integers(0, n, size=3).tolist()
                            a, d = c.nearest_source(srcs)
                            assert a.shape == (n,) and d.shape == (n,)
                        elif kind == 3:
                            c.path(int(r.integers(n)), int(r.integers(n)))
                        else:
                            s = c.stats()
                            assert s["server"]["requests_total"] >= 1
            except Exception as exc:  # surface worker failures to the test
                errors.append(exc)

        with serving(oracle, tmp_path, max_wait_us=5_000) as (sock, server):
            threads = [
                threading.Thread(target=worker, args=(int(s),))
                for s in rng.integers(0, 2**31, size=5)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            snap = server.metrics.snapshot()
        assert not errors, errors
        assert snap["requests_total"] == 50
        assert snap["error_total"] == 0 and snap["shed_total"] == 0
        assert snap["batches_total"] >= 1
        assert orphaned_segments() == []


class TestClientRetry:
    """The idempotent-retry policy of :class:`OracleClient` against a
    deliberately flaky fake server (scripted per-connection behaviors)."""

    @staticmethod
    def _flaky_server(sock_path: str, behaviors: list[str]) -> list[dict]:
        """Serve one scripted connection per behavior; returns the (live)
        list of requests received so far."""
        received: list[dict] = []
        srv = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        srv.bind(sock_path)
        srv.listen(8)

        def loop():
            for mode in behaviors:
                conn, _ = srv.accept()
                f = conn.makefile("rb")
                line = f.readline()
                if line:
                    received.append(json.loads(line))
                req_id = received[-1]["id"] if received else None
                if mode == "drop":
                    pass  # close without answering → ConnectionError
                elif mode == "unavailable":
                    resp = {"id": req_id, "ok": False, "code": 503,
                            "error": "server is shutting down"}
                    conn.sendall((json.dumps(resp) + "\n").encode())
                elif mode == "bad":
                    resp = {"id": req_id, "ok": False, "code": 400,
                            "error": "no such thing"}
                    conn.sendall((json.dumps(resp) + "\n").encode())
                else:  # "ok"
                    resp = {"id": req_id, "ok": True,
                            "result": {"sources": received[-1]["sources"],
                                       "distances": [[0.0, 1.0]]}}
                    conn.sendall((json.dumps(resp) + "\n").encode())
                f.close()
                conn.close()
            srv.close()

        threading.Thread(target=loop, daemon=True).start()
        return received

    def test_retries_once_after_connection_drop(self, tmp_path):
        sock = str(tmp_path / "flaky.sock")
        received = self._flaky_server(sock, ["drop", "ok"])
        with OracleClient(sock, retry_backoff_s=0.01) as c:
            got = c.distances([0])
        assert np.array_equal(got, [[0.0, 1.0]])
        assert len(received) == 2  # original + one resend

    def test_retries_once_after_503_drain(self, tmp_path):
        sock = str(tmp_path / "flaky.sock")
        received = self._flaky_server(sock, ["unavailable", "ok"])
        with OracleClient(sock, retry_backoff_s=0.01) as c:
            got = c.distances([0])
        assert np.array_equal(got, [[0.0, 1.0]])
        assert len(received) == 2

    def test_second_failure_propagates(self, tmp_path):
        sock = str(tmp_path / "flaky.sock")
        self._flaky_server(sock, ["drop", "drop"])
        with OracleClient(sock, retry_backoff_s=0.01) as c:
            with pytest.raises(ConnectionError):
                c.distances([0])

    def test_retry_disabled(self, tmp_path):
        sock = str(tmp_path / "flaky.sock")
        received = self._flaky_server(sock, ["drop", "ok"])
        with OracleClient(sock, retries=0) as c:
            with pytest.raises(ConnectionError):
                c.distances([0])
        assert len(received) == 1  # no resend

    def test_client_errors_not_retried(self, tmp_path):
        sock = str(tmp_path / "flaky.sock")
        received = self._flaky_server(sock, ["bad", "ok"])
        with OracleClient(sock, retry_backoff_s=0.01) as c:
            with pytest.raises(ServerError) as err:
                c.distances([0])
        assert err.value.code == 400
        assert len(received) == 1  # 400 is the caller's problem, no retry
