"""The benchmark workloads.

Each workload object has the same life cycle, driven by ``run.py``:

* ``setup()`` makes the inputs from the seed, starts the cluster or the
  service and warms it up; ``close()`` tears it down.  ``setup_s`` is
  the wall time of ``setup()``.
* ``run(seconds)`` runs whole operations until the time is up and
  returns one :class:`OpRecord` per attempted operation.  Every
  operation's output goes through :mod:`oracle`.  An exception or a
  degraded run marks the operation failed; a failed check marks it
  failed and wrong, and a wrong output makes the whole run incorrect.
  Nothing is retried.

The ``mp-*`` workloads run one allreduce schedule on a real
:class:`~repro.runtime.mp_cluster.MPCluster` with one process per rank.
They use the socket transport: the shared-memory ring tears its
cursors now and then (see README, "The ShmRing torn-cursor fault"), so
an allreduce over it fails at random, and a random failure cannot be
counted the same way in every run.
"""

from __future__ import annotations

import asyncio
import ctypes
import gc
import time
from dataclasses import dataclass

import numpy as np

import inputs
import oracle
from repro import HZCCL, CollectiveConfig
from repro.runtime.mp_cluster import MPCluster, MPClusterError
from repro.runtime.nodemap import NodeMap
from repro.schedule import CodecSpec, MPExecutor, hierarchical_allreduce_schedule
from repro.service import AggregationService

MP_RANKS = 2
MP_TRANSPORT = "socket"
#: untimed allreduces after a cluster start (worker imports, codec build)
MP_WARMUP = 2
#: an mp workload cycles through this many bytes of input sets per rank
#: (one set at 4 MiB, 64 at 1 KiB), one set per op
MP_POOL_BYTES = 64 << 10
SERVICE_RANKS = 4
SERVICE_CLIENTS = 8
#: distinct sessions the clients cycle through
SERVICE_POOL = 16
#: sessions whose output is compared with a lone hzccl-direct reduce
SERVICE_SPOT_CHECKS = 2


def _release_harness_memory() -> None:
    """Hand the harness's freed inputs and oracle temporaries back to the
    OS before workers fork.  A forked worker starts with every page the
    parent holds, so otherwise the parent's heap layout of the moment
    (which varies run to run) shows up in the workers' peak memory."""
    gc.collect()
    # the interpreter's own symbols include the C library's on Linux
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim.argtypes = [ctypes.c_size_t]
        trim.restype = ctypes.c_int
        trim(0)


@dataclass
class OpRecord:
    latency_s: float
    wire: float
    failed: bool
    #: the op completed but its output failed the oracle (``failed`` too)
    wrong: bool = False
    #: MPRun fields (mp workloads only)
    makespan_s: float = 0.0
    compute_s: float = 0.0
    #: SessionResult.batched (service only)
    batched: int = 0




class MPAllreduce:
    """One ring reduce-scatter + allgather over ``MP_RANKS`` processes."""

    kind = "mp"

    def __init__(
        self, codec: str, nbytes: int, seed: int, transport: str = MP_TRANSPORT
    ) -> None:
        self.codec = codec
        self.transport = transport
        self.nbytes = nbytes
        self.seed = seed
        self.n_ranks = MP_RANKS
        self.pool_size = max(1, MP_POOL_BYTES // nbytes)
        # one rank per node: the hierarchical schedule degenerates to the
        # flat ring reduce-scatter + allgather over compressed blocks
        self.schedule = hierarchical_allreduce_schedule(
            NodeMap.regular(MP_RANKS, 1), inter="ring"
        )
        self.cluster: MPCluster | None = None
        self.restarts = 0
        self.wrong_ops: list[str] = []

    # ------------------------------------------------------------------ #
    def setup(self) -> None:
        # fork the workers before the inputs exist, so their resident
        # memory does not depend on what the parent holds
        _release_harness_memory()
        self._start_cluster()
        self.sets = inputs.input_sets(
            self.seed, self.pool_size, self.n_ranks, self.nbytes
        )
        self.refs = [oracle.reference(s) for s in self.sets]
        self.blocks = [
            [np.array_split(a, self.n_ranks) for a in s] for s in self.sets
        ]
        self.eb = inputs.error_bound(self.sets[0]) if self.codec == "hz" else None
        self.spec = (
            CodecSpec("homomorphic", error_bound=self.eb)
            if self.codec == "hz"
            else CodecSpec("plain")
        )
        self.executor = MPExecutor(self.cluster, self.spec)
        self.next_set = 0
        for _ in range(MP_WARMUP):
            rec = self.op()
            if rec.failed:
                raise RuntimeError(f"warm-up allreduce failed: {self.last_error}")
        self.next_set = 0

    def _start_cluster(self) -> None:
        self.cluster = MPCluster(self.n_ranks, transport=self.transport)
        self.cluster.start()

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.shutdown()
            self.cluster = None
        self.sets = self.refs = self.blocks = None

    shutdown = close

    def op(self) -> OpRecord:
        """One timed allreduce on the next input set; a failed one
        replaces the cluster."""
        k = self.next_set
        self.next_set = (k + 1) % self.pool_size
        state = [dict(enumerate(b)) for b in self.blocks[k]]
        t0 = time.perf_counter()
        try:
            run = self.executor.run(self.schedule, state)
        except MPClusterError as exc:
            latency = time.perf_counter() - t0
            self.last_error = str(exc).splitlines()[0]
            self._replace_cluster()
            return OpRecord(latency, 0.0, failed=True)
        latency = time.perf_counter() - t0
        if run.degraded:  # an aborted run poisons the cluster
            self.last_error = "degraded run"
            self._replace_cluster()
            return OpRecord(latency, float(run.wire), failed=True)
        outputs = [
            np.concatenate([s[b] for b in range(self.n_ranks)])
            for s in run.state
        ]
        error = oracle.check_allreduce(
            outputs, self.sets[k], self.refs[k], run.wire, self.eb
        )
        self.last_error = error
        if error is not None:
            self.wrong_ops.append(f"input set {k}: {error}")
        return OpRecord(
            latency,
            float(run.wire),
            failed=error is not None,
            wrong=error is not None,
            makespan_s=run.makespan_s,
            compute_s=run.compute_s,
        )

    def _replace_cluster(self) -> None:
        """Restart after a failure, outside the op's timed region."""
        self.cluster.shutdown()
        self._start_cluster()
        self.executor = MPExecutor(self.cluster, self.spec)
        self.restarts += 1

    def run(self, seconds: float) -> list[OpRecord]:
        records = []
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            records.append(self.op())
        return records


class ServiceReduce:
    """``SERVICE_CLIENTS`` closed-loop asyncio clients of one service."""

    kind = "service"

    def __init__(self, nbytes: int, seed: int, clients: int = SERVICE_CLIENTS):
        self.nbytes = nbytes
        self.seed = seed
        self.clients = clients
        self.n_ranks = SERVICE_RANKS
        self.loop = asyncio.new_event_loop()
        self.service: AggregationService | None = None
        self.wrong_ops: list[str] = []

    def setup(self) -> None:
        self.start(
            inputs.input_sets(self.seed, SERVICE_POOL, self.n_ranks, self.nbytes)
        )

    def start(self, pool: list[list[np.ndarray]]) -> None:
        """Start a service over ``pool`` (sessions of rank vectors) and
        warm it with one wave."""
        self.pool = pool
        self.n_ranks = len(pool[0])
        self.eb = inputs.error_bound(pool[0])
        self.config = CollectiveConfig(error_bound=self.eb)
        self.refs = [oracle.reference(s) for s in pool]
        self.first_output: dict[int, np.ndarray] = {}
        self.service = AggregationService(self.config)
        # plan cache, arenas and the executor's threads
        if any(rec.failed for rec in self.wave()):
            raise RuntimeError("warm-up session failed")

    def wave(self) -> list[OpRecord]:
        """One session per client, all submitted at once."""
        return self._gather(self._session(c, c) for c in range(self.clients))

    def close(self) -> None:
        if self.service is not None:
            self.loop.run_until_complete(self.service.stop())
            self.service = None

    def shutdown(self) -> None:
        self.close()
        self.loop.close()

    def _gather(self, coros) -> list:
        async def together():
            return await asyncio.gather(*coros)

        return self.loop.run_until_complete(together())

    async def _session(self, client: int, s: int) -> OpRecord:
        s %= SERVICE_POOL
        t0 = time.perf_counter()
        try:
            res = await self.service.submit(
                self.pool[s], tenant=f"client{client}", root=0
            )
        except Exception:  # noqa: BLE001 - any refusal or error is a failure
            return OpRecord(time.perf_counter() - t0, 0.0, failed=True)
        latency = time.perf_counter() - t0
        if res.degraded:
            return OpRecord(latency, 0.0, failed=True)
        out = res.output
        first = self.first_output.setdefault(s, out)
        error = oracle.check_bound(out, self.refs[s], self.n_ranks, self.eb)
        if error is None and out.tobytes() != first.tobytes():
            error = "session output depends on its batch"
        if error is not None:
            self.wrong_ops.append(f"session {s}: {error}")
        return OpRecord(
            latency,
            res.bytes_on_wire / res.batched,
            failed=error is not None,
            wrong=error is not None,
            batched=res.batched,
        )

    async def _client(self, client: int, end: float) -> list[tuple[int, OpRecord]]:
        done = []
        i = 0
        while time.perf_counter() < end:
            s = (client + self.clients * i) % SERVICE_POOL
            done.append((s, await self._session(client, s)))
            i += 1
        return done

    def run(self, seconds: float) -> list[OpRecord]:
        end = time.perf_counter() + seconds
        per_client = self._gather(
            self._client(c, end) for c in range(self.clients)
        )
        tagged = [item for done in per_client for item in done]
        # batching must not change a session's bytes: a spot-checked
        # session equals a lone fused direct reduce of the same inputs
        lone = HZCCL(self.config)
        for s in range(min(SERVICE_SPOT_CHECKS, SERVICE_POOL)):
            alone = lone.reduce(self.pool[s], root=0, kernel="hzccl-direct")
            if alone.outputs[0].tobytes() != self.first_output[s].tobytes():
                self.wrong_ops.append(
                    f"session {s}: differs from a lone hzccl-direct reduce"
                )
                for tag, rec in tagged:
                    if tag == s:
                        rec.failed = rec.wrong = True
        return [rec for _, rec in tagged]


WORKLOADS = {
    "mp-hz-allreduce-4mb": lambda seed, smoke: MPAllreduce(
        "hz", (8 << 10) if smoke else (4 << 20), seed
    ),
    "service-reduce-64kb": lambda seed, smoke: ServiceReduce(
        (8 << 10) if smoke else (64 << 10), seed, clients=4 if smoke else 8
    ),
}
