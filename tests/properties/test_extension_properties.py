"""Property-based tests over the extension algorithms (Bruck family,
all-to-all, pipelined chain, hierarchical composition)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alltoall import bruck_alltoall, pairwise_alltoall
from repro.core.bruck import bruck_allgather, dissemination_barrier
from repro.core.hierarchical import hierarchical_allreduce
from repro.core.pipeline import chain_bcast
from repro.core.validate import verify
from oracle import SendOp, programs_of


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=32),
    k=st.integers(min_value=2, max_value=34),
)
def test_bruck_allgather_always_verifies(p, k):
    verify(bruck_allgather(p, k))


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=32),
    k=st.integers(min_value=2, max_value=34),
)
def test_dissemination_barrier_always_verifies(p, k):
    verify(dissemination_barrier(p, k))


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=20),
    k=st.integers(min_value=2, max_value=8),
)
def test_alltoall_always_verifies(p, k):
    verify(pairwise_alltoall(p))
    verify(bruck_alltoall(p, k))


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=16),
    k=st.integers(min_value=2, max_value=8),
)
def test_bruck_alltoall_conserves_blocks(p, k):
    """Digit routing must deliver each (src, dst) block exactly once to
    its destination — total receive volume equals the off-local blocks."""
    from oracle import RecvOp

    sched = bruck_alltoall(p, k)
    for prog in programs_of(sched):
        got = []
        for _, op in prog.iter_ops():
            if isinstance(op, RecvOp):
                got.extend(op.blocks)
        # relayed blocks may pass through; but every destined block must
        # be received at least once unless it started local
        destined = {
            s * p + prog.rank for s in range(p) if s != prog.rank
        }
        assert destined <= set(got)


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=24),
    segments=st.integers(min_value=1, max_value=24),
    root_seed=st.integers(min_value=0, max_value=1000),
)
def test_chain_bcast_always_verifies(p, segments, root_seed):
    verify(chain_bcast(p, segments, root=root_seed % p))


@settings(max_examples=40, deadline=None)
@given(
    nodes=st.integers(min_value=1, max_value=6),
    ppn=st.integers(min_value=1, max_value=6),
    intra_k=st.integers(min_value=2, max_value=5),
    leader_k=st.integers(min_value=2, max_value=6),
)
def test_hierarchical_always_verifies(nodes, ppn, intra_k, leader_k):
    sched = hierarchical_allreduce(
        nodes * ppn,
        ppn,
        intra_k=intra_k,
        leader_algorithm="recursive_multiplying",
        leader_k=leader_k,
    )
    verify(sched)


@settings(max_examples=40, deadline=None)
@given(
    nodes=st.integers(min_value=2, max_value=5),
    ppn=st.integers(min_value=2, max_value=5),
)
def test_hierarchical_internode_traffic_is_leader_only(nodes, ppn):
    """Structural invariant of the two-level composition, under any
    geometry hypothesis explores."""
    p = nodes * ppn
    sched = hierarchical_allreduce(p, ppn)
    leaders = {node * ppn for node in range(nodes)}
    for prog in programs_of(sched):
        for _, op in prog.iter_ops():
            if isinstance(op, SendOp):
                same_node = prog.rank // ppn == op.peer // ppn
                if not same_node:
                    assert prog.rank in leaders and op.peer in leaders
