#!/usr/bin/env python3
"""Scenario: an MPI-style application on the library's collectives.

A miniature distributed solver — power iteration for the dominant
eigenvalue of a matrix, row-partitioned across ranks — written against the
``repro.Session`` facade exactly as it would be against mpi4py.  Every
``allreduce``/``allgather``/``bcast`` underneath is one of this library's
schedules, selected per call by an MPICH-style tuning table; swapping in a
tuned table changes the algorithms without touching the solver (the
paper's §VI-G user experience).

Run:  python examples/mpi_session_app.py
"""

import numpy as np

from repro import Session, frontier, mpich_policy, tune
from repro.runtime.session import Comm

N = 64          # matrix dimension
RANKS = 8       # "MPI processes"
ITERS = 60


def make_matrix() -> np.ndarray:
    """A symmetric matrix with a clearly dominant eigenvalue (2x spectral
    gap, so power iteration converges in a few dozen steps)."""
    rng = np.random.default_rng(3)
    a = rng.normal(size=(N, N))
    sym = (a + a.T) / 2
    v = rng.normal(size=N)
    v /= np.linalg.norm(v)
    return sym + 4 * N * np.outer(v, v)


def power_iteration(comm: Comm) -> float:
    """Each rank owns N/size rows; one iteration is a local matvec, an
    allgather of the partial result, and an allreduce for the norm."""
    rows_per = N // comm.size
    lo = comm.rank * rows_per

    # Rank 0 builds the matrix and broadcasts it (row blocks would be the
    # production layout; a full bcast keeps the demo short).
    if comm.rank == 0:
        flat = make_matrix().reshape(-1)
        a = comm.bcast(flat, root=0)
    else:
        a = comm.bcast(None, root=0, count=N * N, dtype=np.float64)
    my_rows = a.reshape(N, N)[lo : lo + rows_per]

    x = np.ones(N) / np.sqrt(N)
    eig = 0.0
    for _ in range(ITERS):
        local = my_rows @ x                       # local matvec
        y = comm.allgather(local)                 # assemble y = A·x
        # Rayleigh quotient λ = xᵀAx / xᵀx (x is unit length) and the new
        # norm, folded into one 2-element allreduce.
        stats = comm.allreduce(np.array([x @ y, y @ y]))
        eig = float(stats[0])
        x = y / np.sqrt(stats[1])
    comm.barrier()
    return eig


if __name__ == "__main__":
    truth = float(np.max(np.linalg.eigvalsh(make_matrix())))

    # Stock MPICH-style selection.
    results = Session(RANKS, table=mpich_policy()).run(power_iteration)
    assert all(abs(r - results[0]) < 1e-9 for r in results)
    print(f"power iteration across {RANKS} ranks: λ ≈ {results[0]:.6f} "
          f"(numpy: {truth:.6f})")
    assert abs(results[0] - truth) / truth < 1e-4

    # The same application on a tuned table: different collectives
    # underneath, identical numerics.
    table = tune(frontier(RANKS, 1), [64, 4096, 65536]).table
    tuned_results = Session(RANKS, table=table).run(power_iteration)
    assert abs(tuned_results[0] - results[0]) < 1e-9
    choice = table.select("allreduce", RANKS, 8 * 8)
    print(f"re-ran on tuned table (allreduce → {choice.describe()}): "
          f"identical λ ✓")
