"""Layered end-to-end benchmark of the separator-decomposition shortest-path
oracle (Cohen, SPAA 1993): what the E⁺ preprocessing costs once, and what
each source row costs afterwards, on the program's serving stacks.

Usage, from the repository root::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (each from one process, at most 2 threads or connections, on a
2-CPU budget; weights are integers 1..10 drawn from the seed, so every
answer is checked for exact equality against scipy's Dijkstra on G):

``grid-batch``
    56×56 bidirected grid, default build (spectral separator, leaves-up
    E⁺), closed loop of 64-source batches on ``query_engine("shm:2")``.
    The only workload whose set-up runs the separator layer.
``mu-serve``
    μ=0.5 separator-programmable family (n=2200, programmed tree), served
    by ``OracleServer`` in a child process (shm:2, row cache 256); set-up
    is a restart from the augmentation cache.  An open loop of single-row
    requests at 40 requests/s, so every request is its own batch, with a
    sparse reweight every 3 s.
``mu-fleet``
    The same family behind ``shard_fleet(k=2, backend="process")``, closed
    loop of 64-source batches — the only workload through ``repro.shard``.

Each run makes a few cycles of set-up, load and shutdown.

Output: one ``name value unit`` line per metric, then, as the last line,
``{"correct", "attempted", "failed", "metrics"}`` as JSON.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` interleaves untraced and
traced cycles and reports the per-layer metrics, including the tracing
overhead on each end-to-end metric.  The exit code is 1 when any answer was
wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import pathlib
import shutil
import signal
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402

WORKLOADS = ("grid-batch", "mu-serve", "mu-fleet")

#: prctl option that makes orphaned descendants reparent to this process.
PR_SET_CHILD_SUBREAPER = 36
#: Seconds descendants get to exit on their own before they are killed.
REAP_GRACE_S = 10.0


def become_subreaper() -> None:
    """Adopt every descendant that outlives its parent (the program's pool
    workers, the server child's resource tracker), so ``reap_children``
    can wait for it."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _children() -> list[int]:
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = pathlib.Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def reap_children() -> None:
    """Stop this process's multiprocessing resource tracker, then wait for
    every child and adopted descendant to end, killing what is still
    running after ``REAP_GRACE_S``."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in _children():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        time.sleep(0.01)


def make_workload(name: str, seed: int, *, smoke: bool, checker, workdir: pathlib.Path):
    if name == "grid-batch":
        from perfbench.batch import GridBatch

        return GridBatch(seed, smoke=smoke, checker=checker)
    if name == "mu-fleet":
        from perfbench.batch import MuFleet

        return MuFleet(seed, smoke=smoke, checker=checker)
    from perfbench.serve import MuServe

    return MuServe(seed, smoke=smoke, checker=checker, workdir=workdir)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and two cycles (the benchmark's own tests)")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt one answer, to prove the checks catch it")
    args = ap.parse_args(argv)

    harness.use_repo_sources()
    checker = harness.Checker(inject_fault=args.inject_fault)
    workdir = pathlib.Path.cwd() / ".perfbench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # Pin the program's per-machine state inside the checkout (inherited
    # by every process it starts): no kernel tuning file, no kernel
    # override, and a private augmentation store.
    os.environ["REPRO_KERNEL_TUNE"] = str(workdir / "kernel_tuning.json")
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "aug-cache")
    os.environ.pop("REPRO_KERNEL", None)
    tracer = harness.Tracer()
    try:
        wl = make_workload(args.workload, args.seed, smoke=args.smoke,
                           checker=checker, workdir=workdir)
        try:
            cycles = harness.run_cycles(
                wl.start, wl.drive, wl.stop, wl.tracing,
                seconds=args.seconds,
                cycles=2 if args.smoke else wl.cycles,
                trace=bool(args.trace),
                tracer=tracer,
            )
            run_layers = wl.run_layers() if args.trace else {}
        finally:
            wl.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    for why in checker.failures:
        print(f"FAILED {why}")
    for name, vals in harness.nonrepeating_counts(cycles).items():
        print(f"NONREPEATING {name}: " + " / ".join(f"{v:.0f}" for v in vals))
    if args.trace:
        values = harness.per_layer(cycles, run_layers)
        units = harness.PER_LAYER
    else:
        values = harness.end_to_end(cycles)
        units = {k: u for k, (u, _) in harness.END_TO_END.items()}
    lat = [x for c in cycles if not c.traced for x in c.op_latency_s]
    print(f"# {args.workload} seed={args.seed}: {len(lat)} timed operations "
          f"(p90 {harness.percentile(lat, 90) * 1e3:.6g} ms), "
          f"{checker.attempted} checked, {checker.failed} failed, {checker.wrong} wrong")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    metrics = {
        name: {"value": (value if math.isfinite(value) else None), "unit": units[name]}
        for name, value in values.items()
    }
    print(json.dumps({
        "correct": checker.wrong == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0 if checker.wrong == 0 else 1


if __name__ == "__main__":
    become_subreaper()
    try:
        code = main()
    finally:
        reap_children()
    sys.exit(code)
