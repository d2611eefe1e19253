"""Steadiness check: run workloads repeatedly and report the spread.

    python3 perfbench/steady.py --runs 10 [--workload NAME ...] [--sets 2]

For each workload it runs ``run.py`` once per seed (1..runs, then
runs+1..2*runs for a second set), and prints per end-to-end metric the
median, the quartiles and the quartile spread as a share of the median,
next to the metric's bound from ``BENCHMARK.json``.  With two sets it
also prints how far the second median moved from the first.  A metric is
``ok`` when every set's spread is at most a third of its bound and the
second median moved less than the bound; the same rule holds for every
metric, ``setup_s`` included.  The exit code is non-zero if any metric
is not ``ok``, or if a run was incorrect or its failed share differs
between runs.  Every run's result is appended as one JSON line to
``perfbench/out/steady.jsonl``, with the share of CPU time the
hypervisor gave to other guests during the run (``steal_pct``, from
``/proc/stat`` where it exists): on a shared host the slow runs are the
ones with high steal.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def steal_jiffies() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs so far, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = open(os.path.join(HERE, "out", "steady.jsonl"), "a")
    verdict = 0
    for workload in args.workload or names:
        sets = []
        for k in range(args.sets):
            results = []
            for seed in range(1 + k * args.runs, 1 + (k + 1) * args.runs):
                t0, s0 = time.time(), steal_jiffies()
                res = run_once(workload, seed, args.seconds)
                s1 = steal_jiffies()
                res.update(workload=workload, seed=seed, wall_s=time.time() - t0)
                if s0 and s1 and s1[1] > s0[1]:
                    res["steal_pct"] = 100.0 * (s1[0] - s0[0]) / (s1[1] - s0[1])
                log.write(json.dumps(res) + "\n")
                log.flush()
                results.append(res)
            sets.append(results)
        print(f"\n{workload}: {args.runs} runs x {args.sets} set(s)")
        shares = set()
        for k, results in enumerate(sets):
            share = sorted({r["failed"] / r["attempted"] for r in results})
            shares.update(share)
            ops = [r["attempted"] for r in results]
            correct = all(r["correct"] for r in results)
            verdict |= not correct
            steal = [round(r["steal_pct"], 1) for r in results if "steal_pct" in r]
            print(f"  set {k + 1}: ops/run {min(ops)}..{max(ops)}, "
                  f"failed share {share}, all correct {correct}, "
                  f"steal % per run {steal}")
        verdict |= len(shares) > 1
        for name, bound in bounds.items():
            rows = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                rows.append(spread(values))
            med, q1, q3, rel = rows[0]
            ok = all(row[3] <= bound / 3 for row in rows)
            line = (f"  {name:18s} median {med:12.5g}  q1 {q1:12.5g}  "
                    f"q3 {q3:12.5g}  spread {rel:7.2%} (bound {bound:.0%})")
            if len(rows) == 2:
                moved = rows[1][0] / med - 1.0
                ok = ok and moved <= bound
                line += (f"  set2 median {rows[1][0]:12.5g} ({moved:+.2%}), "
                         f"spread {rows[1][3]:7.2%}")
            print(line + ("  ok" if ok else "  WIDE"))
            verdict |= not ok
    return verdict


if __name__ == "__main__":
    sys.exit(main())
