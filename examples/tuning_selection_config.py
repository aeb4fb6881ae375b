#!/usr/bin/env python3
"""Scenario: shipping a tuned MPICH selection configuration (paper §VI-G).

A facility operator wants application users to get the generalized-
algorithm speedups *transparently* — no source changes, just an
environment variable pointing MPICH at a tuning file.  This script is the
paper's §VI-G workflow end to end:

1. exhaustively sweep every algorithm × radix × message size on the
   target machine (simulated here),
2. distill the winners into a compact first-match-wins selection table,
3. write it as the selection-config document (the tuning file — the
   same file ``repro-tune -o`` writes and ``repro-serve --grid`` reads),
4. demonstrate the gain: tuned selection vs the stock defaults and the
   vendor MPI stand-in, per collective and size.

Run:  python examples/tuning_selection_config.py
"""

import tempfile
from pathlib import Path

from repro.bench import format_size, format_table, geomean
from repro.bench.speedup import policy_latency
from repro.selection import SelectionConfig, mpich_policy, tune, vendor_policy
from repro.simnet import frontier

machine = frontier(nodes=32, ppn=1)
sizes = [8, 128, 2048, 32768, 524288, 4 << 20]

# 1-2. Sweep and distill.
print(f"tuning {machine.describe()} over {len(sizes)} sizes ...")
config = tune(machine, sizes)
print()
print(config.describe())
print()

# 3. The tuning file a user would point MPICH at.
out = Path(tempfile.gettempdir()) / "repro-tuned-frontier32.json"
config.save(out)
restored = SelectionConfig.load(out).table  # round-trips losslessly
print(f"wrote tuning file: {out} ({len(restored.rules)} rules)\n")

# 4. What the user gains, without touching their application.
mpich = mpich_policy()
vendor = vendor_policy()
rows = []
gains_mpich = []
gains_vendor = []
for coll in ("bcast", "reduce", "allgather", "allreduce"):
    for n in sizes:
        t_tuned = policy_latency(restored, coll, machine, n)
        t_mpich = policy_latency(mpich, coll, machine, n)
        t_vendor = policy_latency(vendor, coll, machine, n)
        gains_mpich.append(t_mpich / t_tuned)
        gains_vendor.append(t_vendor / t_tuned)
        rows.append(
            [
                coll,
                format_size(n),
                restored.select(coll, machine.nranks, n).describe(),
                f"{t_tuned:.2f}",
                f"{t_mpich / t_tuned:.2f}x",
                f"{t_vendor / t_tuned:.2f}x",
            ]
        )
print(format_table(
    ["collective", "size", "tuned choice", "tuned µs", "vs mpich",
     "vs vendor"],
    rows,
    title="Transparent speedup from the tuning file",
))
print(f"\ngeomean speedup: {geomean(gains_mpich):.2f}x vs stock MPICH, "
      f"{geomean(gains_vendor):.2f}x vs the vendor stand-in")
