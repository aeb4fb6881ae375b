"""Name tuples the command-line parsers offer as choices.

A leaf module: it imports nothing, so ``repro-<verb> --help`` builds its
parser without loading the builders, the simulator or NumPy.  Each tuple
is defined here once and re-exported by the module that owns the names
(:data:`repro.core.registry.COLLECTIVES`,
:data:`repro.simnet.simulate.ENGINES`).
"""

__all__ = ["COLLECTIVES", "ENGINES"]

#: The collectives the registry builds (paper Table I plus barrier).
COLLECTIVES = (
    "bcast",
    "reduce",
    "gather",
    "scatter",
    "allgather",
    "allreduce",
    "reduce_scatter",
    "alltoall",
    "barrier",
)

#: Valid values for ``simulate(engine=...)``, the one place a simulation
#: core is chosen: every sweep, tuner, adapt loop, chaos run and service
#: above it runs ``auto``.  ``repro-check --engine`` reuses the names for
#: its static class count (it never simulates).
ENGINES = ("auto", "materialized", "collapsed")
