#!/usr/bin/env python3
"""Scenario: how far can you trust the α-β-γ models? (paper §III–V, §VI-F)

Before spending node-hours sweeping radices empirically, an analyst wants
to know where the paper's closed-form cost models are reliable.  This
script:

1. calibrates (α, β) from simulated ping-pong measurements by least
   squares — the standard procedure on a real machine;
2. compares every model against the simulator on the *reference* machine
   (which realizes the models' assumptions) — agreement should be exact;
3. repeats on the Frontier-like machine, where multi-port NICs and
   injection overheads break the models — quantifying the gap the paper
   reports ("empirical analysis contradicted our analytical intuition").

Run:  python examples/model_validation.py
"""

from repro.bench import format_size, format_table
from repro.core import build_schedule, schedule_from_json
from repro.models import ModelParams, fit_ptp, model_time
from repro.simnet import frontier, reference, simulate

# ----------------------------------------------------------------------
# 1. Calibrate α and β from ping measurements (one message, two ranks).
# ----------------------------------------------------------------------
ping = schedule_from_json("""{
  "format": 1, "collective": "bcast", "algorithm": "ping",
  "nranks": 2, "nblocks": 1, "root": 0,
  "programs": [[[{"op": "send", "peer": 1, "blocks": [0]}]],
               [[{"op": "recv", "peer": 0, "blocks": [0]}]]]
}""")

machine = reference(2)
sizes = [2**i for i in range(3, 22)]
times = [simulate(ping, machine, n).time for n in sizes]
fit = fit_ptp(sizes, times)
print(f"fitted point-to-point model: {fit.describe()}")
print(f"machine truth:               α={machine.alpha_inter * 1e6:.3f}µs  "
      f"β={machine.beta_inter * 1e9:.4f}ns/B\n")

# ----------------------------------------------------------------------
# 2. Model vs simulator on the reference machine (models should be exact).
# 3. Same on Frontier-sim (models should drift where hardware kicks in).
# ----------------------------------------------------------------------
CASES = [
    ("bcast", "binomial", None),
    ("bcast", "knomial", 4),
    ("reduce", "knomial", 4),
    ("allgather", "recursive_doubling", None),
    ("allreduce", "recursive_multiplying", 4),
    ("allgather", "ring", None),
]
P = 64
for label, mach in (("reference", reference(P)), ("frontier", frontier(P, 1))):
    params = ModelParams(alpha=mach.alpha_inter, beta=mach.beta_inter,
                         gamma=mach.gamma)
    rows = []
    for coll, alg, k in CASES:
        sched = build_schedule(coll, alg, P, k=k)
        for n in (1024, 1 << 20):
            m_us = model_time(coll, alg, n, P, params, k=k) * 1e6
            s_us = simulate(sched, mach, n).time_us
            rows.append(
                [f"{coll}/{alg}" + (f"(k={k})" if k else ""),
                 format_size(n), f"{m_us:.1f}", f"{s_us:.1f}",
                 f"{s_us / m_us:.2f}"]
            )
    print(format_table(
        ["algorithm", "size", "model µs", "sim µs", "sim/model"],
        rows,
        title=f"--- {label} machine (p={P}) ---",
    ))
    print()

print("reading: sim/model ≈ 1.00 on the reference machine = the models "
      "are internally exact;\nthe Frontier column shows where real "
      "hardware features (4 ports, injection overhead, dragonfly)\n"
      "overtake the theory — e.g. multi-port NICs make wide fan-outs "
      "cheaper than eq. (3) predicts.")
