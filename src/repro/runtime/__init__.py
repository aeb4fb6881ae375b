"""Execution substrates that move real bytes through collective schedules."""

from .buffers import (
    check_outputs,
    checked_slots,
    initial_buffers,
    make_inputs,
    reference_result,
)
from .executor import CollectiveRun, execute
from .session import Comm, Session
from .ops import (
    ALL_OPS,
    BAND,
    BOR,
    BXOR,
    LAND,
    LOR,
    MAX,
    MIN,
    PROD,
    SUM,
    ReduceOp,
    by_name,
)
from .threaded import ThreadedTransport, execute_threaded

__all__ = [
    "ReduceOp",
    "SUM",
    "PROD",
    "MAX",
    "MIN",
    "BAND",
    "BOR",
    "BXOR",
    "LAND",
    "LOR",
    "ALL_OPS",
    "by_name",
    "make_inputs",
    "initial_buffers",
    "reference_result",
    "checked_slots",
    "check_outputs",
    "execute",
    "CollectiveRun",
    "ThreadedTransport",
    "execute_threaded",
    "Session",
    "Comm",
]
