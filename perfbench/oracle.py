"""Correctness oracle, independent of the program under test.

It knows only the generated rank inputs and the arithmetic the
collective promises; it never calls into ``repro``.  Each check returns
``None`` when the output is right and a one-line reason otherwise.

* ``hz`` outputs (homomorphic codec, absolute error bound ``eb``) lie
  within ``n * eb`` of the float64 sum of the ``n`` rank inputs, plus the
  half-ulp the float32 output type itself costs.
* ``plain`` outputs at two ranks equal the float32 sum exactly: the
  float64 sum of two float32 values is exact, so rounding it once is the
  only correct float32 answer.
* every rank of an allreduce holds the same bytes;
* a plain ring allreduce moves ``2 (n - 1) S`` bytes for ``S`` bytes per
  rank, and a compressed one strictly fewer.
"""

from __future__ import annotations

import numpy as np


def reference(inputs: list[np.ndarray]) -> np.ndarray:
    """Float64 sum of the rank inputs."""
    return np.sum([np.asarray(a, dtype=np.float64) for a in inputs], axis=0)


def check_bound(
    out: np.ndarray, ref: np.ndarray, n: int, eb: float
) -> str | None:
    if out.shape != ref.shape or out.dtype != np.float32:
        return f"output {out.dtype}{out.shape} != float32{ref.shape}"
    tol = n * eb + np.spacing(np.abs(ref).astype(np.float32)).astype(
        np.float64
    )
    err = np.abs(out.astype(np.float64) - ref)
    worst = int(np.argmax(err - tol))
    if err[worst] > tol[worst]:
        return (
            f"element {worst}: |{out[worst]!r} - {ref[worst]!r}| = "
            f"{err[worst]:.3g} > {n}*eb = {n * eb:.3g}"
        )
    return None


def check_exact_pair_sum(out: np.ndarray, inputs: list[np.ndarray]) -> str | None:
    if len(inputs) != 2:
        raise ValueError("the exact float32 sum is only exact at 2 ranks")
    expect = (
        inputs[0].astype(np.float64) + inputs[1].astype(np.float64)
    ).astype(np.float32)
    if out.shape != expect.shape or out.dtype != np.float32:
        return f"output {out.dtype}{out.shape} != float32{expect.shape}"
    bad = np.flatnonzero(out.view(np.uint32) != expect.view(np.uint32))
    if bad.size:
        i = int(bad[0])
        return f"{bad.size} elements differ from the float32 sum (first {i})"
    return None


def check_ranks_equal(outputs: list[np.ndarray]) -> str | None:
    first = outputs[0].tobytes()
    for r, out in enumerate(outputs[1:], start=1):
        if out.tobytes() != first:
            return f"rank {r} holds a different allreduce result from rank 0"
    return None


def plain_ring_wire(n: int, nbytes: int) -> int:
    return 2 * (n - 1) * nbytes


def check_wire(wire: int, n: int, nbytes: int, compressed: bool) -> str | None:
    plain = plain_ring_wire(n, nbytes)
    if compressed and not wire < plain:
        return f"compressed wire {wire} B is not below the plain {plain} B"
    if not compressed and wire != plain:
        return f"plain wire {wire} B != 2(n-1)S = {plain} B"
    return None


def check_allreduce(
    outputs: list[np.ndarray],
    inputs: list[np.ndarray],
    ref: np.ndarray,
    wire: int,
    eb: float | None,
) -> str | None:
    """Full check of one allreduce; ``eb=None`` means the plain codec."""
    n = len(inputs)
    nbytes = inputs[0].nbytes
    return (
        check_ranks_equal(outputs)
        or (
            check_exact_pair_sum(outputs[0], inputs)
            if eb is None
            else check_bound(outputs[0], ref, n, eb)
        )
        or check_wire(wire, n, nbytes, compressed=eb is not None)
    )


def self_test() -> list[str]:
    """Feed the oracle perturbed outputs; return the perturbations it
    wrongly accepted (empty when the oracle is sound)."""
    rng = np.random.default_rng(7)
    inputs = [rng.standard_normal(257).astype(np.float32) for _ in range(2)]
    ref = reference(inputs)
    exact = ref.astype(np.float32)
    eb = 1e-3
    n = len(inputs)
    S = inputs[0].nbytes
    plain_wire = plain_ring_wire(n, S)
    missed = []
    if check_allreduce([exact, exact.copy()], inputs, ref, plain_wire, None):
        missed.append("rejected a correct plain output")
    if check_allreduce([exact, exact], inputs, ref, plain_wire - 8, eb):
        missed.append("rejected a correct hz output")
    one_ulp = exact.copy()
    one_ulp[3] = np.nextafter(one_ulp[3], np.float32(np.inf))
    cases = {
        "plain output off by one ulp": ([one_ulp, one_ulp], plain_wire, None),
        "ranks disagree": ([exact, one_ulp], plain_wire, None),
        "plain wire off by one byte": ([exact, exact], plain_wire + 1, None),
        "hz output beyond n*eb": (
            [exact + np.float32(2.5 * n * eb)] * 2, plain_wire - 8, eb
        ),
        "hz wire not below plain": ([exact, exact], plain_wire, eb),
    }
    for name, (outs, wire, bound) in cases.items():
        if check_allreduce(outs, inputs, ref, wire, bound) is None:
            missed.append(f"accepted: {name}")
    return missed
