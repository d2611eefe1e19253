"""Wall-clock benchmark of hZCCL on its real data plane.

Run from the repository root::

    python3 perfbench/run.py --workload mp-hz-allreduce-4mb --seed 1 \\
        --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics (no tracing); ``--trace 1``
runs the same workload with span recorders around each layer's public
entry points and prints the per-layer metrics instead, writing one Chrome
trace to ``perfbench/out/``.  ``--smoke`` shrinks every size for a quick
self-check.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: timed rounds per run, each on a fresh cluster or service; setup_s is
#: the median over these and the untimed warm-up round
ROUNDS = 8


def _import_program():
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: no program sources at {SRC}/repro")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


def peak_rss_mib(n_workers: int) -> float:
    """Peak RSS of this process plus ``n_workers`` times the largest
    reaped child's peak (the rank workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + n_workers * child) / 1024.0


def stop_resource_tracker() -> None:
    """Stop the multiprocessing resource tracker, if this run started one.

    Creating a shared-memory segment (the traced run's raw ``ShmRing``
    ceilings) starts it as a helper process that would otherwise outlive
    the run; ``_stop`` closes its pipe and waits for it to exit."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def leftovers() -> list[str]:
    """Child processes of this one still alive after the run ended."""
    pids = set()
    try:
        for tid in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{tid}/children") as fh:
                pids.update(fh.read().split())
    except OSError:  # no /proc: only what multiprocessing started
        return [p.name for p in multiprocessing.active_children()]
    left = []
    for pid in sorted(pids):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmd = fh.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:  # exited meanwhile
            continue
        if cmd.strip():  # a zombie has no command line and runs nothing
            left.append(f"{pid}: {cmd.strip()}")
    return left


def end_to_end(per_round, setups, n_workers) -> dict:
    """The end-to-end metrics from each timed round's op records.

    Latency is each round's mean op time, then the median over rounds:
    see README, "Why a mean, and why per round"."""
    ok = [r for rnd in per_round for r in rnd if not r.failed]
    round_means = [
        statistics.fmean(r.latency_s for r in rnd if not r.failed)
        for rnd in per_round
        if any(not r.failed for r in rnd)
    ]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_mean_ms": (
            statistics.median(round_means) * 1e3 if round_means else float("nan"),
            "ms",
        ),
        "wire_bytes_per_op": (
            statistics.fmean(r.wire for r in ok) if ok else float("nan"),
            "B",
        ),
        "peak_rss_mb": (peak_rss_mib(n_workers), "MiB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    _import_program()
    import oracle
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload; one of {', '.join(WORKLOADS)}")
    missed = oracle.self_test()
    if missed:
        sys.exit(f"perfbench: oracle self-test failed: {missed}")

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    try:
        result = measure(workload, tracer, args)
    finally:
        # every path out stops what the run started and waits for it
        workload.shutdown()
        stop_resource_tracker()
    left = leftovers()
    if left:
        print(f"left behind: {left}", file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result))
    return 0


def measure(workload, tracer, args) -> dict:
    """Set up and time every round, check it, and return the result."""
    from repro.core.pipeline import PLAN_CACHE

    # Round 0 warms the process and is not timed: the first cluster a
    # fresh process forks runs its allreduces markedly slower.  Each later
    # round sets up afresh and times its share of the run; the run reports
    # the median over rounds, so neither one cluster instance's placement
    # on the cores nor a short spell of host contention decides it.
    rounds = 1 if args.smoke else ROUNDS
    setups, per_round = [], []
    window = {"seconds": 0.0, "hits": 0, "misses": 0}
    for i in range(rounds + 1):
        if i:
            workload.close()
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
        if not i:
            continue
        hits, misses = PLAN_CACHE.hits, PLAN_CACHE.misses
        t0_ns = time.perf_counter_ns()
        window.setdefault("t0_ns", t0_ns)
        per_round.append(workload.run(args.seconds / rounds))
        window["seconds"] += (time.perf_counter_ns() - t0_ns) / 1e9
        window["hits"] += PLAN_CACHE.hits - hits
        window["misses"] += PLAN_CACHE.misses - misses

    records = [r for rnd in per_round for r in rnd]
    if all(r.failed for r in records):
        sys.exit(f"perfbench: all {len(records)} operations failed")
    # an op that completed with a wrong output makes the run incorrect; an
    # op that raised or degraded is only counted in ``failed``
    correct = not any(r.wrong for r in records)
    for line in workload.wrong_ops[:5]:
        print(f"wrong output: {line}", file=sys.stderr)
    if tracer is not None:
        from layers import layer_metrics

        metrics, trace_path = layer_metrics(
            workload, tracer, records, window, args
        )
        print(f"chrome trace: {trace_path}")
    # peak memory counts the rank workers once they are reaped
    workload.shutdown()
    if tracer is None:
        metrics = end_to_end(
            per_round, setups, workload.n_ranks if workload.kind == "mp" else 0
        )

    failed = sum(r.failed for r in records)
    print(
        f"{args.workload} seed={args.seed}: {len(records)} ops attempted, "
        f"{failed} failed, {getattr(workload, 'restarts', 0)} cluster restarts"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    return {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


if __name__ == "__main__":
    sys.exit(main())
