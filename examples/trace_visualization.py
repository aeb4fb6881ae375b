#!/usr/bin/env python3
"""Scenario: seeing *why* one algorithm beats another.

Latency numbers say k-ring wins; a timeline says why.  This script
simulates the classic ring and the k-ring broadcast on the 8-ppn Frontier
model with full timeline collection, then:

1. writes a Perfetto trace for both (open at https://ui.perfetto.dev or
   chrome://tracing — one row per rank, one bar per message), and
2. prints the quantitative story: per-link-class busy time and peak
   concurrency, showing the classic ring trickling over the NIC while
   k-ring batches its internode rounds and runs the rest on the fabric.

Run:  python examples/trace_visualization.py
"""

import tempfile
from pathlib import Path

from repro import build, frontier, simulate
from repro.obs import write_perfetto
from repro.simnet import timeline_stats

machine = frontier(nodes=8, ppn=8)
p = machine.nranks
NBYTES = 1 << 20

out_dir = Path(tempfile.gettempdir())
print(f"machine: {machine.describe()}, bcast of 1MiB across {p} ranks\n")

for label, k in (("classic ring", 1), ("k-ring (k = ppn = 8)", 8)):
    sched = build("bcast", "kring", p=p, k=k)
    result = simulate(sched, machine, nbytes=NBYTES, timeline=True)
    stats = timeline_stats(result, p)
    trace_path = write_perfetto(
        result, path=out_dir / f"repro-kring-k{k}.trace.json"
    )
    intra = stats.busy_time.get("intra", 0.0) * 1e6
    inter = (
        stats.busy_time.get("inter", 0.0) + stats.busy_time.get("global", 0.0)
    ) * 1e6
    print(f"{label}:")
    print(f"  makespan            {result.time_us:10.1f} µs")
    print(f"  intranode busy time {intra:10.1f} µs "
          f"({stats.utilization('intra'):.1f} links-worth sustained)")
    print(f"  internode busy time {inter:10.1f} µs")
    print(f"  peak concurrency    {stats.max_concurrent:10d} messages")
    print(f"  trace               {trace_path}")
    print()

print("reading: the classic ring's makespan is dominated by internode")
print("serialization (every round waits on a NIC hop somewhere); k-ring")
print("shifts most rounds onto the intranode fabric — higher intranode")
print("busy time, shorter critical path. Load the two traces side by side")
print("to see the gap between inter-group rounds widen.")
