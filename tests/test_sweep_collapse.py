"""``auto`` collapses inside a sweep and changes no time.

No layer above :func:`~repro.simnet.simulate.simulate` chooses the
simulation core: a sweep point runs ``engine="auto"``, which collapses
ring-like schedules into one class at p = 256.  The times it reports
must still be the materialized core's floats, bit for bit.
"""

from repro.bench.sweep import SweepPoint, clear_sim_memo, run_sweep
from repro.core.registry import info
from repro.simnet.machines import reference
from repro.simnet.simulate import simulate

P = 256
NBYTES = 65536

#: Two points ``auto`` collapses, then two it runs materialized.
POINTS = (
    SweepPoint("allreduce", "ring", NBYTES),
    SweepPoint("allgather", "kring", NBYTES, k=16),
    SweepPoint("bcast", "knomial", NBYTES, k=4),
    SweepPoint("allreduce", "recursive_multiplying", NBYTES, k=4),
)


def test_auto_collapses_inside_sweeps_without_changing_a_time():
    machine = reference(P)
    clear_sim_memo()
    results = run_sweep(POINTS, machine)
    assert [r.error for r in results] == [None] * len(POINTS)
    for i, (pt, res) in enumerate(zip(POINTS, results)):
        schedule = info(pt.collective, pt.algorithm).build(P, k=pt.k)
        mat = simulate(schedule, machine, pt.nbytes, engine="materialized")
        assert res.time == mat.time, pt
        if i < 2:
            auto = simulate(schedule, machine, pt.nbytes)
            assert (auto.engine, auto.nclasses) == ("collapsed", 1), pt
