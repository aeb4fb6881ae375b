"""Property-based tests of real data movement and the simulator.

Where the symbolic layer proves structure, these run randomized
configurations end-to-end on NumPy buffers and through the simulator,
checking the semantics the paper's users would rely on.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.registry import GENERALIZED_ALGORITHMS, build_schedule, info
from repro.runtime.ops import MAX, SUM
from repro.simnet.machines import reference
from repro.simnet.simulate import simulate

PS = st.integers(min_value=1, max_value=24)


@st.composite
def data_configs(draw):
    coll, alg = draw(st.sampled_from(GENERALIZED_ALGORITHMS))
    p = draw(PS)
    entry = info(coll, alg)
    k = max(entry.min_k, draw(st.integers(min_value=1, max_value=26)))
    count = draw(st.integers(min_value=1, max_value=4 * p + 5))
    root = draw(st.integers(min_value=0, max_value=p - 1))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return coll, alg, p, k, count, root if entry.takes_root else 0, seed


@settings(max_examples=60, deadline=None)
@given(data_configs())
def test_generalized_algorithms_move_real_data_correctly(cfg):
    """repro.execute raises on any mismatch against the NumPy oracle."""
    coll, alg, p, k, count, root, seed = cfg
    repro.execute(coll, alg, p=p, count=count, k=k, root=root, seed=seed)


@settings(max_examples=40, deadline=None)
@given(data_configs())
def test_sum_and_max_agree_with_oracle(cfg):
    coll, alg, p, k, count, root, seed = cfg
    if coll not in ("reduce", "allreduce"):
        return
    for op in (SUM, MAX):
        repro.execute(coll, alg, p=p, count=count, k=k, root=root, seed=seed,
                      op=op)


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(min_value=2, max_value=16),
    k=st.integers(min_value=2, max_value=18),
    nbytes=st.integers(min_value=0, max_value=1 << 16),
)
def test_simulated_time_is_positive_and_monotone_in_bytes(p, k, nbytes):
    """More bytes can never make a fixed schedule finish sooner."""
    sched = build_schedule("allreduce", "recursive_multiplying", p, k=k)
    machine = reference(p)
    t1 = simulate(sched, machine, nbytes).time
    t2 = simulate(sched, machine, nbytes + 4096).time
    assert 0 < t1 <= t2


@settings(max_examples=30, deadline=None)
@given(
    p=st.integers(min_value=2, max_value=16),
    nbytes=st.integers(min_value=8, max_value=1 << 14),
    seed=st.integers(min_value=0, max_value=100),
)
def test_simulation_is_deterministic(p, nbytes, seed):
    sched = build_schedule("allgather", "recursive_doubling", p)
    machine = reference(p)
    from repro.simnet.noise import NoiseModel

    noise = NoiseModel(sigma=0.2, seed=seed)
    a = simulate(sched, machine, nbytes, noise=noise)
    b = simulate(sched, machine, nbytes, noise=noise)
    assert a.time == b.time
    assert a.messages == b.messages


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(min_value=2, max_value=16),
    count=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_bcast_is_idempotent_on_result(p, count, seed):
    """Broadcasting twice produces the same buffers as broadcasting once."""
    run1 = repro.execute("bcast", "binomial", p=p, count=count, seed=seed)
    sched = run1.schedule
    from repro.runtime.executor import execute

    before = [b.copy() for b in run1.buffers]
    execute(sched, run1.buffers)
    for x, y in zip(before, run1.buffers):
        assert np.array_equal(x, y)
