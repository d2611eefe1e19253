"""Reproduce the ShmRing torn-cursor fault.

    python3 perfbench/ringfault.py [--cursor-seconds 3] [--ops 400]

Part 1 writes and reads one u64 cursor in shared memory from two
processes with the same ``struct`` format ``ShmRing`` uses for its head
and tail, and counts reads that saw neither the old nor the new value.
Part 2 runs plain 4 MiB allreduces over two rank processes on the
shared-memory transport and counts the ones that fail; a failed one
costs the 10 s receive deadline and a cluster restart.
"""

from __future__ import annotations

import argparse
import os
import struct
import sys
import time
from multiprocessing import shared_memory

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

#: ShmRing's cursor format (runtime/mp_channel.py)
CURSOR = struct.Struct("<Q")
OLD, NEW = 0x00000000FFFFFFFF, 0xFFFFFFFF00000000


def torn_reads(seconds: float) -> tuple[int, int]:
    shm = shared_memory.SharedMemory(create=True, size=64)
    try:
        CURSOR.pack_into(shm.buf, 8, OLD)
        pid = os.fork()
        if pid == 0:
            end = time.monotonic() + seconds
            flip = False
            while time.monotonic() < end:
                for _ in range(1000):
                    CURSOR.pack_into(shm.buf, 8, NEW if flip else OLD)
                    flip = not flip
            os._exit(0)
        reads = torn = 0
        end = time.monotonic() + seconds
        while time.monotonic() < end:
            for _ in range(1000):
                value = CURSOR.unpack_from(shm.buf, 8)[0]
                torn += value != OLD and value != NEW
            reads += 1000
        os.waitpid(pid, 0)
        return reads, torn
    finally:
        shm.close()
        shm.unlink()


def allreduce_failures(ops: int) -> int:
    from workloads import MPAllreduce

    wl = MPAllreduce("plain", 4 << 20, seed=1, transport="shm")
    while True:
        try:
            wl.setup()
            break
        except RuntimeError as exc:  # the fault struck a warm-up op
            print(f"  warm-up: {exc}", flush=True)
            wl.close()
    failures = 0
    try:
        for i in range(ops):
            if wl.op().failed:
                failures += 1
                print(f"  op {i}: {wl.last_error}", flush=True)
    finally:
        wl.close()
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cursor-seconds", type=float, default=3.0)
    parser.add_argument("--ops", type=int, default=400)
    args = parser.parse_args(argv)
    reads, torn = torn_reads(args.cursor_seconds)
    print(f"cursor: {torn} of {reads} reads were torn")
    if args.ops:
        failed = allreduce_failures(args.ops)
        print(f"plain 4 MiB shm allreduce: {failed} of {args.ops} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
