"""Property tests of the collapsed engine's exact-fallback contract.

The dispatcher's promise (DESIGN.md §15): an explicit
``engine="collapsed"`` request never fails and never changes a result —
any input the class-equivalence argument cannot cover (noise, faults,
timelines, custom block maps, nonzero roots, asymmetric machines)
falls back to the materialized engine, records why
in ``SimResult.fallback``, and produces output bit-identical to asking
for ``engine="materialized"`` directly.  Hypothesis drives the
asymmetric inputs; the assertions never sample — equality is exact.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import BlockMap
from repro.core.registry import build_schedule
from repro.faults import Crash, FaultPlan
from repro.simnet.machines import frontier, reference
from repro.simnet.noise import NoiseModel
from repro.simnet.simulate import simulate

#: A symmetric baseline: without the asymmetric input under test, this
#: schedule runs collapsed (single class) — so any fallback observed in
#: these tests is attributable to the injected asymmetry alone.
SCHEDULE = build_schedule("allgather", "ring", 8)
M8 = reference(8)


def _assert_exact_fallback(col, mat, expected_reason):
    assert col.engine == "materialized"
    assert col.fallback == expected_reason
    assert col.time == mat.time
    assert list(col.rank_times) == list(mat.rank_times)
    assert col.messages == mat.messages


@settings(max_examples=20, deadline=None)
@given(sigma=st.floats(min_value=0.01, max_value=0.5,
                       allow_nan=False, allow_infinity=False),
       seed=st.integers(min_value=0, max_value=2**16))
def test_noise_forces_exact_fallback(sigma, seed):
    noise = NoiseModel(sigma=sigma, seed=seed)
    col = simulate(SCHEDULE, M8, 4096, noise=noise, engine="collapsed")
    mat = simulate(SCHEDULE, M8, 4096, noise=noise, engine="materialized")
    _assert_exact_fallback(col, mat, "noise model active")


@settings(max_examples=20, deadline=None)
@given(rank=st.integers(min_value=0, max_value=7),
       step=st.integers(min_value=0, max_value=6))
def test_faults_force_exact_fallback(rank, step):
    plan = FaultPlan(crashes=(Crash(rank=rank, step=step),))
    col = simulate(SCHEDULE, M8, 4096, faults=plan, engine="collapsed")
    mat = simulate(SCHEDULE, M8, 4096, faults=plan, engine="materialized")
    _assert_exact_fallback(col, mat, "fault plan present")


@settings(max_examples=10, deadline=None)
@given(root=st.integers(min_value=1, max_value=7))
def test_nonzero_root_forces_exact_fallback(root):
    schedule = build_schedule("bcast", "knomial", 8, k=2, root=root)
    col = simulate(schedule, M8, 4096, engine="collapsed")
    mat = simulate(schedule, M8, 4096, engine="materialized")
    _assert_exact_fallback(col, mat, f"nonzero root {root}")


def test_timeline_forces_exact_fallback():
    col = simulate(SCHEDULE, M8, 4096, collect_timeline=True,
                   engine="collapsed")
    mat = simulate(SCHEDULE, M8, 4096, collect_timeline=True,
                   engine="materialized")
    _assert_exact_fallback(col, mat, "timeline collection requested")
    assert col.timeline == mat.timeline


def test_custom_block_map_forces_exact_fallback():
    bm = BlockMap(4096, SCHEDULE.nblocks)
    col = simulate(SCHEDULE, M8, 4096, block_map=bm, engine="collapsed")
    mat = simulate(SCHEDULE, M8, 4096, block_map=bm, engine="materialized")
    _assert_exact_fallback(col, mat, "custom block map")


def test_asymmetric_machine_forces_fallback():
    m = frontier(4, 2)  # two ranks per node: intra/inter link asymmetry
    col = simulate(SCHEDULE, m, 4096, engine="collapsed")
    mat = simulate(SCHEDULE, m, 4096, engine="materialized")
    assert col.engine == "materialized"
    assert col.fallback is not None
    assert col.time == mat.time
    assert list(col.rank_times) == list(mat.rank_times)


def test_symmetric_baseline_does_collapse():
    # The control: with none of the above, the same request runs the
    # collapsed core — proving the fallbacks observed here come from
    # the injected asymmetry, not from the baseline config.
    res = simulate(SCHEDULE, M8, 4096, engine="collapsed")
    assert res.engine == "collapsed"
    assert res.fallback is None
    assert res.nclasses == 1
