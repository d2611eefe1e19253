"""The traced run: spans around each layer's public entry points, the
per-layer metrics computed from them, and each layer's ceiling.

:class:`Tracer` replaces a fixed list of public functions and methods
with wrappers that record one span per call (name, start, end, parent
span, thread) in memory; :func:`layer_metrics` turns the spans, the
workload's own operation records and a few probes into the per-layer
metrics and writes everything as one Chrome trace.  Rank workers are
forked after the wrappers are installed; there the wrappers only call
through, and what the workers did is read from what ``MPRun`` returns.

Layers the workload itself does not exercise are measured by a short
probe at the workload's payload size: the result format asks every
traced run for every per-layer metric ``BENCHMARK.json`` declares, and a
layer the workload never calls would otherwise read a constant.  The
``mp-*`` workloads run a burst of service sessions, and the service
workload runs its batched-reduce plan on an ``MPCluster``.
"""

from __future__ import annotations

import cProfile
import inspect
import json
import multiprocessing
import os
import pstats
import secrets
import statistics
import threading
import time
from multiprocessing import shared_memory

import numpy as np

import inputs
import workloads
from repro import CollectiveConfig
from repro.bench.stream import run_stream
from repro.compression.fzlight import FZLight
from repro.core import pipeline
from repro.core.pipeline import PLAN_CACHE, CollectiveRequest, PayloadSpec
from repro.homomorphic.hzdynamic import HZDynamic
from repro.obs.export import validate_chrome_trace
from repro.runtime import mp_channel
from repro.runtime.mp_channel import MPChannelError, ShmRing
from repro.runtime.mp_cluster import DEFAULT_RING_CAPACITY, MPCluster
from repro import service as service_mod
from repro.schedule import MPExecutor

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
#: STREAM arrays: 3 x 32 MiB of float64
STREAM_ELEMENTS = 4 << 20
RING_PINGS = 200
RING_DEADLINE_S = 3.0
RING_ATTEMPTS = 5
PROBE_REPEATS = 7


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #
class Tracer:
    """In-memory span recorder wrapped around public entry points."""

    #: (owner, attribute, span name); ``service.plan``/``execute`` are the
    #: names the service module resolves at call time
    POINTS = (
        (FZLight, "compress", "compression.encode"),
        (FZLight, "decompress", "compression.decode"),
        (HZDynamic, "add", "homomorphic.add"),
        (HZDynamic, "reduce_fused", "homomorphic.reduce_fused"),
        (pipeline, "plan", "core.plan"),
        (service_mod, "plan", "core.plan"),
        (service_mod, "execute", "service.execute"),
        (service_mod.AggregationService, "submit", "service.submit"),
        (MPCluster, "start", "runtime.cluster_start"),
        (MPCluster, "run_schedule", "runtime.run_schedule"),
        (MPExecutor, "run", "schedule.run"),
        (mp_channel, "dump_items", "runtime.dump_items"),
        (mp_channel, "load_items", "runtime.load_items"),
    )

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, t0_ns, t1_ns, id, parent, tid)
        self._pid = os.getpid()
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        tracer = self

        if inspect.iscoroutinefunction(fn):
            # concurrent tasks share a thread: async spans are roots
            async def traced_async(*args, **kwargs):
                if os.getpid() != tracer._pid:
                    return await fn(*args, **kwargs)
                sid = next(tracer._ids)
                t0 = time.perf_counter_ns()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.spans.append(
                        (name, t0, time.perf_counter_ns(), sid, 0,
                         threading.get_ident())
                    )

            return traced_async

        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(
                    (name, t0, t1, sid, parent, threading.get_ident())
                )

        return traced

    def install(self) -> None:
        for owner, attr, name in self.POINTS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def durations(self, name: str, since_ns: int = 0) -> list[float]:
        """Durations in seconds of the ``name`` spans started after
        ``since_ns``."""
        return [
            (t1 - t0) / 1e9
            for n, t0, t1, *_ in self.spans
            if n == name and t0 >= since_ns
        ]

    def self_times(self, since_ns: int, until_ns: int) -> dict[str, float]:
        """Seconds of self time per layer (span duration minus the part
        its child spans cover), over spans started in the window."""
        window = [s for s in self.spans if since_ns <= s[1] < until_ns]
        children: dict[int, list] = {}
        for s in window:
            children.setdefault(s[4], []).append(s)
        layers: dict[str, float] = {}
        for name, t0, t1, sid, _, _ in window:
            covered, end = 0, t0
            for _, c0, c1, *_ in sorted(children.get(sid, ()), key=lambda c: c[1]):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + (t1 - t0 - covered) / 1e9
        return layers

    def chrome(self, other: dict) -> dict:
        base = min((s[1] for s in self.spans), default=0)
        tids: dict[int, int] = {}
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (t0 - base) / 1e3,
                "dur": (t1 - t0) / 1e3,
                "pid": self._pid,
                "tid": tids.setdefault(tid, len(tids)),
                "args": {"id": sid, "parent": parent},
            }
            for name, t0, t1, sid, parent, tid in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}

    def span_cost_s(self, calls: int = 20000) -> float:
        """Recording cost of one span, from a wrapped no-op."""
        def noop():
            return None

        traced = self.wrap(noop, "trace.calibrate")
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        wrapped = time.perf_counter() - t0
        self.spans = [s for s in self.spans if s[0] != "trace.calibrate"]
        return max(wrapped - bare, 0.0) / calls


# --------------------------------------------------------------------- #
# probes
# --------------------------------------------------------------------- #
def _median_time(fn, repeats: int = PROBE_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def numpy_calls(fn) -> int:
    """NumPy-level calls (Python functions in NumPy's files and NumPy's
    C functions and methods) made by one ``fn()``, counted by cProfile."""
    prof = cProfile.Profile()
    prof.enable()
    fn()
    prof.disable()
    return sum(
        calls
        for (path, _, func), (_, calls, *_) in pstats.Stats(prof).stats.items()
        if f"{os.sep}numpy{os.sep}" in path or "numpy" in func
    )


def kernel_probes(
    tracer: Tracer, comp: FZLight, vectors: list[np.ndarray], eb: float
) -> dict:
    """compression / homomorphic / kernels metrics on the workload's own
    per-rank payloads, each call recorded as a span."""
    engine = HZDynamic(collect_stats=False)
    fields = [comp.compress(v, abs_eb=eb) for v in vectors]
    # a pairwise fold of two compressed ring blocks (block 0 of ranks 0, 1)
    half = [comp.compress(np.array_split(v, 2)[0], abs_eb=eb) for v in vectors[:2]]
    since = time.perf_counter_ns()
    for _ in range(PROBE_REPEATS):
        comp.compress(vectors[0], abs_eb=eb)
        comp.decompress(fields[0])
        folded = engine.add(half[0], half[1])
        engine.reduce_fused(fields)
    encode = statistics.median(tracer.durations("compression.encode", since))
    decode = statistics.median(tracer.durations("compression.decode", since))
    add = statistics.median(tracer.durations("homomorphic.add", since))
    fused = statistics.median(tracer.durations("homomorphic.reduce_fused", since))
    raw = vectors[0].nbytes
    packed = fields[0].nbytes
    triad = run_stream(STREAM_ELEMENTS, repeats=5).triad_Bps
    calls = numpy_calls(lambda: comp.compress(vectors[0], abs_eb=eb))
    fold_bytes = half[0].nbytes + half[1].nbytes + folded.nbytes
    return {
        "compression.encode_ms": (encode * 1e3, "ms"),
        "compression.decode_ms": (decode * 1e3, "ms"),
        "compression.ratio": (raw / packed, "x"),
        "homomorphic.add_ms": (add * 1e3, "ms"),
        "homomorphic.reduce_fused_ms": (fused * 1e3, "ms"),
        "kernels.stream_triad_GBps": (triad / 1e9, "GB/s"),
        # computed bytes touched: read the input, write the output
        "kernels.encode_frac_stream": ((raw + packed) / encode / triad, "ratio"),
        "kernels.decode_frac_stream": ((packed + raw) / decode / triad, "ratio"),
        "kernels.fold_frac_stream": (fold_bytes / add / triad, "ratio"),
        "kernels.numpy_calls_per_encode": (float(calls), "count"),
    }


def serialise_probe(tracer: Tracer, message) -> float:
    """Seconds for dump_items + load_items of one wire message."""
    since = time.perf_counter_ns()
    for _ in range(PROBE_REPEATS):
        mp_channel.load_items(mp_channel.dump_items((message,)))
    dump = tracer.durations("runtime.dump_items", since)
    load = tracer.durations("runtime.load_items", since)
    return statistics.median(d + l for d, l in zip(dump, load))


def memcpy_MBps(nbytes: int) -> float:
    src = np.ones(max(nbytes, 1), dtype=np.uint8)
    dst = np.empty_like(src)
    reps = max(1, (32 << 20) // src.nbytes)
    per = _median_time(lambda: [np.copyto(dst, src) for _ in range(reps)])
    return src.nbytes * reps / per / 1e6


def _ring_peer(inbox: ShmRing, outbox: ShmRing, pings: int, msg: int, count: int):
    """Forked peer: echo the pings, then take the stream and acknowledge."""
    deadline = time.monotonic() + 4 * RING_DEADLINE_S
    for _ in range(pings):
        outbox.send_bytes(inbox.recv_bytes(64, deadline), deadline)
    for i in range(count):
        data = inbox.recv_bytes(msg, deadline)
        if data[0] != i & 0xFF or data[-1] != i & 0xFF:
            raise MPChannelError(f"message {i} arrived damaged")
    outbox.send_bytes(b"k", deadline)


def _ring_attempt(msg: int, count: int, names: list[str]):
    ctx = multiprocessing.get_context("fork")
    tag = f"perfbench-{os.getpid()}-{secrets.token_hex(4)}"
    ab = ShmRing.create(f"{tag}-ab", DEFAULT_RING_CAPACITY)
    ba = ShmRing.create(f"{tag}-ba", DEFAULT_RING_CAPACITY)
    names += [ab.shm.name, ba.shm.name]
    # forked, so the peer inherits both rings as they are
    peer = ctx.Process(
        target=_ring_peer,
        args=(ab, ba, RING_PINGS, msg, count),
        name="perfbench-ring-peer",
    )
    peer.start()
    try:
        rtts = []
        ping = b"p" * 64
        for _ in range(RING_PINGS):
            deadline = time.monotonic() + RING_DEADLINE_S
            t0 = time.perf_counter()
            ab.send_bytes(ping, deadline)
            ba.recv_bytes(64, deadline)
            rtts.append(time.perf_counter() - t0)
        payload = [bytes([i & 0xFF]) * msg for i in range(min(count, 256))]
        deadline = time.monotonic() + RING_DEADLINE_S * 4
        t0 = time.perf_counter()
        for i in range(count):
            ab.send_bytes(payload[i % len(payload)], deadline)
        ba.recv_bytes(1, deadline)
        stream_s = time.perf_counter() - t0
        return statistics.median(rtts), msg * count / stream_s
    finally:
        peer.join(timeout=1.0)
        if peer.is_alive():
            peer.terminate()
            peer.join(timeout=5.0)
        for ring in (ab, ba):
            ring.close()
            ring.unlink()


def ring_ceilings(msg: int, names: list[str]) -> tuple[float, float, int]:
    """Raw ShmRing 64 B round trip (s), streaming rate (B/s) for ``msg``
    byte messages, and the number of attempts the torn-cursor fault broke.
    """
    count = int(min(2000, max(16, (32 << 20) // msg)))
    faults = 0
    for _ in range(RING_ATTEMPTS):
        try:
            rtt, rate = _ring_attempt(msg, count, names)
            return rtt, rate, faults
        except (MPChannelError, ValueError, IndexError) as exc:
            faults += 1
            print(f"ring ceiling attempt hit the ring fault: {exc}")
    raise RuntimeError(f"raw ShmRing failed {RING_ATTEMPTS} attempts in a row")


def leaked_segments(names: list[str]) -> list[str]:
    leaked = []
    for name in names:
        try:
            shm = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        shm.close()
        leaked.append(name)
    return leaked


def _plan_probes(n_ranks: int, elements: int, config) -> tuple[float, float]:
    request = CollectiveRequest(
        op="batched-reduce",
        n_ranks=n_ranks,
        payload=PayloadSpec("float32", elements),
        sessions=workloads.SERVICE_CLIENTS,
    )
    pipeline.plan(request, config)
    hit = _median_time(lambda: pipeline.plan(request, config), 201)
    miss = _median_time(lambda: pipeline.plan(request, config, cache=None), 21)
    return hit, miss


def service_numbers(tracer: Tracer, records, since_ns: int) -> dict:
    """service.* from the spans of a traced service run."""
    execs = sorted(
        (t0, t1) for n, t0, t1, *_ in tracer.spans
        if n == "service.execute" and t0 >= since_ns
    )
    waits = []
    for n, s0, s1, *_ in tracer.spans:
        if n != "service.submit" or s0 < since_ns:
            continue
        inside = [(t0, t1) for t0, t1 in execs if t0 >= s0 and t1 <= s1]
        if inside:
            t0, t1 = max(inside, key=lambda e: e[1])
            waits.append(((s1 - s0) - (t1 - t0)) / 1e9)
    ok = [r for r in records if not r.failed]
    return {
        "service.batch_size_mean": (statistics.fmean(r.batched for r in ok), "sessions"),
        "service.execute_ms": (
            statistics.median((t1 - t0) / 1e9 for t0, t1 in execs) * 1e3, "ms"
        ),
        "service.queue_wait_ms": (statistics.median(waits) * 1e3, "ms"),
    }


def service_probe(tracer: Tracer, vectors: list[np.ndarray]) -> tuple[dict, float]:
    """Two waves of concurrent service sessions over the workload's own
    rank vectors; returns service.* and the plan-cache hit rate."""
    probe = workloads.ServiceReduce(vectors[0].nbytes, seed=0)
    probe.start([vectors] * workloads.SERVICE_POOL)
    hits0, misses0 = PLAN_CACHE.hits, PLAN_CACHE.misses
    since = time.perf_counter_ns()
    records = probe.wave() + probe.wave()
    hits, misses = PLAN_CACHE.hits - hits0, PLAN_CACHE.misses - misses0
    probe.shutdown()
    return service_numbers(tracer, records, since), hits / max(hits + misses, 1)


def mp_probe(tracer: Tracer, pool: list[list[np.ndarray]], config) -> list:
    """The service's batched-reduce plan run on an MPCluster: a batch of
    SERVICE_CLIENTS sessions, a few times; returns OpRecords."""
    n = len(pool[0])
    sessions = workloads.SERVICE_CLIENTS
    plan = pipeline.plan(
        CollectiveRequest(
            op="batched-reduce",
            n_ranks=n,
            payload=PayloadSpec("float32", pool[0][0].size),
            sessions=sessions,
        ),
        config,
    )
    records = []
    with MPCluster(n, transport=workloads.MP_TRANSPORT) as cluster:
        for i in range(PROBE_REPEATS + 1):
            state = [
                {("v", s, r): pool[s % len(pool)][r] for s in range(sessions)}
                for r in range(n)
            ]
            t0 = time.perf_counter()
            run = pipeline.execute(plan, state=state, cluster=cluster)
            latency = time.perf_counter() - t0
            if i:  # the first run warms the workers
                records.append(
                    workloads.OpRecord(
                        latency, float(run.wire), run.degraded,
                        makespan_s=run.makespan_s, compute_s=run.compute_s,
                    )
                )
    return records


# --------------------------------------------------------------------- #
# the traced run's metrics
# --------------------------------------------------------------------- #
def layer_metrics(workload, tracer: Tracer, records, window: dict, args):
    """Every per-layer metric for one traced run.  ``window`` holds the
    first timed op's start (``t0_ns``), the timed seconds, and the plan
    cache's ``hits``/``misses`` over the timed rounds."""
    loop_start, loop_s = window["t0_ns"], window["seconds"]
    loop_end = time.perf_counter_ns()
    self_s = tracer.self_times(loop_start, loop_end)
    loop_spans = sum(1 for s in tracer.spans if s[1] >= loop_start)
    ok = [r for r in records if not r.failed]
    metrics: dict[str, tuple[float, str]] = {}

    if workload.kind == "mp":
        vectors = workload.sets[0]
        eb = workload.eb or inputs.error_bound(vectors)
        config = CollectiveConfig(error_bound=eb)
        comp = FZLight(workload.spec.block_size, workload.spec.n_threadblocks)
        mp_records = ok
        starts = tracer.durations("runtime.cluster_start")
        block = workload.blocks[0][0][0]
        message = comp.compress(block, abs_eb=eb) if workload.eb else block
        msg_bytes = block.nbytes
        svc, hit_rate = service_probe(tracer, vectors)
    else:
        vectors = workload.pool[0]
        eb = workload.eb
        config = workload.config
        comp = FZLight(config.block_size, config.n_threadblocks)
        svc = service_numbers(tracer, records, loop_start)
        hit_rate = window["hits"] / max(window["hits"] + window["misses"], 1)
        since = time.perf_counter_ns()
        mp_records = mp_probe(tracer, workload.pool, config)
        starts = tracer.durations("runtime.cluster_start", since)
        message = comp.compress(vectors[0], abs_eb=eb)
        msg_bytes = vectors[0].nbytes

    metrics.update(kernel_probes(tracer, comp, vectors, eb))
    segments: list[str] = []
    rtt, ring_rate, faults = ring_ceilings(msg_bytes, segments)
    leaked = leaked_segments(segments)
    if leaked:
        raise RuntimeError(f"shared-memory segments left behind: {leaked}")
    hit, miss = _plan_probes(len(vectors), vectors[0].size, config)

    makespan = [r.makespan_s for r in mp_records]
    compute = [r.compute_s for r in mp_records]
    metrics.update(
        {
            "runtime.cluster_start_ms": (statistics.median(starts) * 1e3, "ms"),
            "runtime.dispatch_ms": (
                statistics.median(r.latency_s - r.makespan_s for r in mp_records)
                * 1e3,
                "ms",
            ),
            "runtime.serialise_ms": (serialise_probe(tracer, message) * 1e3, "ms"),
            "runtime.ring_rtt_us": (rtt * 1e6, "us"),
            "runtime.ring_MBps": (ring_rate / 1e6, "MB/s"),
            "runtime.memcpy_MBps": (memcpy_MBps(msg_bytes), "MB/s"),
            "runtime.ring_faults": (float(faults), "count"),
            "schedule.makespan_ms": (statistics.median(makespan) * 1e3, "ms"),
            "schedule.compute_ms": (statistics.median(compute) * 1e3, "ms"),
            "schedule.wait_ms": (
                statistics.median(m - c for m, c in zip(makespan, compute)) * 1e3,
                "ms",
            ),
            "core.plan_hit_us": (hit * 1e6, "us"),
            "core.plan_miss_us": (miss * 1e6, "us"),
            "core.plan_cache_hit_rate": (hit_rate, "ratio"),
        }
    )
    metrics.update(svc)
    span_cost = tracer.span_cost_s()
    latencies = [r.latency_s * 1e3 for r in ok]
    metrics["trace.op_mean_ms"] = (statistics.fmean(latencies), "ms")
    metrics["trace.op_p50_ms"] = (statistics.median(latencies), "ms")
    metrics["trace.op_p90_ms"] = (
        statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1
        else latencies[0],
        "ms",
    )
    metrics["trace.overhead_pct"] = (
        100.0 * loop_spans * span_cost / loop_s, "%"
    )

    tracer.restore()
    os.makedirs(OUT_DIR, exist_ok=True)
    doc = tracer.chrome(
        {
            "workload": args.workload,
            "seed": args.seed,
            "ops": len(records),
            "self_ms_per_op": {
                k: v * 1e3 / max(len(records), 1) for k, v in self_s.items()
            },
            "metrics": {k: v for k, (v, _) in metrics.items()},
        }
    )
    validate_chrome_trace(doc)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return metrics, path
