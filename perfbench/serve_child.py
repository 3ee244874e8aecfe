"""Server half of the ``mu-serve`` workload: one ``OracleServer`` restart.

Loads the graph and its programmed separator tree that the benchmark wrote,
builds the oracle from the augmentation cache (``cache="read"`` — a hit,
since the benchmark filled the cache with an untimed cold build), publishes
an ``shm:2`` engine with a 256-row cache and serves on a unix socket until
SIGTERM.  On exit it writes a JSON record of its counts and, with
``--trace``, the spans recorded around calls into the program's layers.

    python3 perfbench/serve_child.py --inputs DIR --socket PATH --info OUT.json [--trace]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import pickle
import signal
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402

#: Span name -> the traced program function, as ``(module, class or None,
#: attribute)``.
TRACE_TARGETS = {
    "cache.load": ("repro.cache.store", "AugmentationCache", "load"),
    "schedule.compile": ("repro.core.scheduler", None, "build_schedule"),
    "reweight.replay": ("repro.core.api", "ShortestPathOracle", "with_new_weights"),
    "reweight.flip": ("repro.core.query", "QueryEngine", "reweight"),
}


def _targets() -> list[tuple[object, str, str]]:
    import importlib

    out = []
    for span, (module, owner, attr) in TRACE_TARGETS.items():
        obj = importlib.import_module(module)
        out.append((getattr(obj, owner) if owner else obj, attr, span))
    return out


async def _serve(inputs: pathlib.Path, socket_path: str, info: dict) -> None:
    from repro import OracleConfig, ShortestPathOracle, WeightedDigraph
    from repro.server import OracleServer, ServerConfig

    arrays = dict(np.load(inputs / "graph.npz"))
    graph = WeightedDigraph(int(arrays["n"]), arrays["src"], arrays["dst"], arrays["weight"])
    # The tree was pickled by the benchmark process that started this one.
    with open(inputs / "tree.pkl", "rb") as fh:
        tree = pickle.load(fh)
    cfg = OracleConfig(
        executor="shm:2", row_cache=256, cache="read", cache_dir=str(inputs / "cache")
    )
    oracle = ShortestPathOracle.build(graph, tree, config=cfg)
    info["cache_status"] = oracle.cache_info.get("status")
    info["cache_load_s"] = oracle.cache_info.get("load_s", 0.0)
    info["counts"] = {
        "separators.sep_total": float(tree.separator_sizes().sum()),
        "separators.height": float(tree.height),
        "eplus.edges": float(oracle.augmentation.size),
        "schedule.phases": float(oracle.schedule.num_phases),
        "schedule.edge_scans": float(oracle.schedule.edge_scans),
    }

    def engine_factory():
        t0 = time.perf_counter()
        engine = oracle.query_engine(cfg)
        info["publish_s"] = time.perf_counter() - t0
        return engine

    server = OracleServer(
        oracle, cfg, ServerConfig(path=socket_path), engine_factory=engine_factory
    )
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, server.request_shutdown)
    await server.serve_forever()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--inputs", required=True, type=pathlib.Path)
    ap.add_argument("--socket", required=True)
    ap.add_argument("--info", required=True, type=pathlib.Path)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    harness.use_repo_sources()
    tracer = harness.Tracer()
    info: dict = {}
    try:
        with harness.patched(tracer, _targets() if args.trace else []):
            asyncio.run(_serve(args.inputs, args.socket, info))
    finally:
        info["spans"] = {name: tracer.durations(name) for name in TRACE_TARGETS}
        args.info.write_text(json.dumps(info))
    return 0


if __name__ == "__main__":
    sys.exit(main())
