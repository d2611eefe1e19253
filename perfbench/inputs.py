"""Seeded inputs for the benchmark workloads.

Every rank payload is a snapshot of the repository's RTM Simulation
Setting 1 field, ``repro.datasets.snapshot_series("sim1", ...)``: the
generator calibrated to the paper's RTM block statistics (expanding
fronts, geometric spreading, an exactly-zero halo, the source spike).
Rank ``r`` holds snapshot ``r`` of one shot, so a reduction sums
consecutive snapshots, the paper's RTM use case.

The shot itself is fixed (``SHOT_SEED``): where its sources fall decides
how many of the codec's blocks are constant, and across random shots
that moves the compression ratio, and with it the wire bytes and the
kernel work, by 10-15 % at the same size.  ``--seed`` instead moves the
shot within the volume: input set ``k`` of seed ``s`` is the shot shifted
circularly along its second axis by an offset drawn from
``default_rng([s, k])``.  Every seed thus gives other values at most
positions but the same field statistics.  The shift moves whole
depth columns within each plane of the first axis; a shift along the
first axis would also move the fronts between the ranks' ring blocks,
which changed the 4 MiB allreduce's wire bytes by up to 14 % from seed
to seed.  Workloads with small payloads cycle through many input sets,
which averages what a shift still does to the compressed size.
"""

from __future__ import annotations

import numpy as np

from repro.datasets import snapshot_series

#: the shot: the seed the repository's paper benchmarks generate with
SHOT_SEED = 20240624
#: error bound relative to the value range of rank 0's payload: the
#: paper's 1e-4, on its O(1)-range fields, taken as a relative bound
REL_EB = 1e-4
#: grid of a payload, by bytes per rank: 2:2:1 like sim1's 449x449x235
DIMS = {
    1 << 10: (8, 8, 4),
    8 << 10: (16, 16, 8),
    64 << 10: (32, 32, 16),
    4 << 20: (128, 128, 64),
}


def input_sets(
    seed: int, count: int, n_ranks: int, nbytes: int
) -> list[list[np.ndarray]]:
    """``count`` input sets of ``n_ranks`` float32 payloads of ``nbytes``."""
    if nbytes not in DIMS:
        raise ValueError(f"no grid for {nbytes} B payloads; one of {sorted(DIMS)}")
    dims = DIMS[nbytes]
    shot = snapshot_series("sim1", n_ranks, dims=dims, seed=SHOT_SEED)
    sets = []
    for k in range(count):
        rng = np.random.default_rng([seed, k])
        shift = int(rng.integers(dims[1]))
        sets.append(
            [np.roll(s, shift, axis=1).astype(np.float32).ravel() for s in shot]
        )
    return sets


def error_bound(inputs: list[np.ndarray]) -> float:
    """Absolute error bound: ``REL_EB`` times rank 0's value range.

    A shift keeps the values, so every input set of a workload has the
    same bound."""
    return REL_EB * (float(inputs[0].max()) - float(inputs[0].min()))
