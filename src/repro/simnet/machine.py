"""Machine specifications: the hardware parameters the simulator models.

A :class:`MachineSpec` captures exactly the exascale hardware features the
paper identifies as determining collective performance (§II-B):

* **Multi-port NICs** (§II-B2): each node owns ``nic_ports`` full-duplex
  network ports.  An internode message occupies one send-side port unit
  and one receive-side port unit for ``port_msg_overhead + nbytes ·
  beta_inter`` — so up to ``nic_ports`` messages stream concurrently at
  full per-port bandwidth, and wider fan-outs serialize into waves.  This
  is the mechanism behind recursive multiplying's empirical optimum
  ``k ≈ ports`` (paper Fig. 8b).
* **Message buffering / injection overhead** (§II-B2): posting a
  nonblocking operation costs the CPU ``injection_overhead`` serially.
  This bounds how much latency hiding a wider radix can buy, producing the
  upper bound on useful k the paper observes at 1024 nodes (Fig. 10a).
* **Intranode links** (§II-B3): messages between ranks on the same node
  use ``alpha_intra``/``beta_intra``.  ``intra_kind="dedicated"`` models
  fully connected per-pair links (Polaris NVLink); ``"shared"`` models a
  per-node fabric with ``intra_channels`` concurrent channels (Frontier
  Infinity Fabric).  The intra/inter asymmetry is what k-ring exploits
  (Fig. 8c) and its absence is why k-ring is flat on Polaris (Fig. 11c).
* **Dragonfly topology** (§II-B1): optional; nodes are grouped, and
  messages between groups pay ``alpha_global`` extra latency and contend
  for per-group global-link channels — the global congestion term that
  penalizes algorithms flooding the network with ``p·(k-1)`` simultaneous
  messages per round.
* **Reduction cost** γ: reducing an incoming payload occupies the
  receiving rank's compute engine for ``gamma * nbytes``, serialized.

All times are in **seconds**, bandwidths in **seconds per byte**; the
constructors in :mod:`repro.simnet.machines` accept the friendlier µs and
GiB/s units.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..errors import MachineError

__all__ = [
    "DragonflySpec",
    "MachineSpec",
    "us",
    "GiBps",
    "LINK_INTRA",
    "LINK_INTER",
    "LINK_GLOBAL",
    "LINK_NAMES",
]

#: Link classes of a message: same node, across nodes, across dragonfly
#: groups — and the names timelines and metrics spell them with.
LINK_INTRA = 0
LINK_INTER = 1
LINK_GLOBAL = 2
LINK_NAMES = ("intra", "inter", "global")


def us(x: float) -> float:
    """Microseconds → seconds."""
    return x * 1e-6


def GiBps(x: float) -> float:
    """GiB/s → seconds-per-byte (β)."""
    if x <= 0:
        raise MachineError(f"bandwidth must be positive, got {x}")
    return 1.0 / (x * 1024**3)


@dataclass(frozen=True)
class DragonflySpec:
    """Dragonfly network layer: groups of nodes with global links.

    Attributes
    ----------
    nodes_per_group:
        Electrical-group size; intra-group messages pay only
        ``alpha_inter``.
    alpha_global:
        Extra latency (s) for messages crossing groups (the optical hop).
    global_channels:
        Concurrent message slots on a group's global links (egress and
        ingress pools of this size per group); ``None`` disables global
        contention, leaving only the latency adder.
    """

    nodes_per_group: int
    alpha_global: float = 0.0
    global_channels: Optional[int] = None

    def __post_init__(self) -> None:
        if self.nodes_per_group < 1:
            raise MachineError("nodes_per_group must be >= 1")
        if self.alpha_global < 0:
            raise MachineError("alpha_global must be >= 0")
        if self.global_channels is not None and self.global_channels < 1:
            raise MachineError("global_channels must be >= 1 or None")


@dataclass(frozen=True)
class MachineSpec:
    """Complete parameterization of a simulated machine.

    See the module docstring for the physical meaning of each group of
    fields.  Use :func:`dataclasses.replace` (re-exported as
    :meth:`with_`) to derive variants for ablations.
    """

    name: str
    nodes: int
    ppn: int

    # Internode network
    alpha_inter: float
    beta_inter: float
    nic_ports: int = 1
    port_msg_overhead: float = 0.0

    # Intranode fabric
    alpha_intra: float = 0.0
    beta_intra: float = 0.0
    intra_kind: str = "dedicated"  # "dedicated" | "shared"
    intra_channels: int = 8
    intra_msg_overhead: float = 0.0

    # Per-rank software costs
    injection_overhead: float = 0.0
    gamma: float = 0.0

    # Optional topology layer
    dragonfly: Optional[DragonflySpec] = None

    # Rank→node placement: "block" packs consecutive ranks onto a node
    # (the job-launcher default the paper's experiments use);
    # "round_robin" scatters consecutive ranks across nodes — modeling the
    # dispersed placements §VI-C3 blames for k-ring's irrelevance in the
    # 1-process-per-node runs on a busy 9,408-node machine.
    placement: str = "block"

    def __post_init__(self) -> None:
        if self.nodes < 1 or self.ppn < 1:
            raise MachineError(
                f"{self.name}: nodes and ppn must be >= 1 "
                f"(got {self.nodes}, {self.ppn})"
            )
        for attr in (
            "alpha_inter",
            "beta_inter",
            "alpha_intra",
            "beta_intra",
            "port_msg_overhead",
            "intra_msg_overhead",
            "injection_overhead",
            "gamma",
        ):
            if getattr(self, attr) < 0:
                raise MachineError(f"{self.name}: {attr} must be >= 0")
        if self.nic_ports < 1:
            raise MachineError(f"{self.name}: nic_ports must be >= 1")
        if self.intra_kind not in ("dedicated", "shared"):
            raise MachineError(
                f"{self.name}: intra_kind must be 'dedicated' or 'shared', "
                f"got {self.intra_kind!r}"
            )
        if self.intra_channels < 1:
            raise MachineError(f"{self.name}: intra_channels must be >= 1")
        if self.dragonfly and self.nodes % self.dragonfly.nodes_per_group:
            raise MachineError(
                f"{self.name}: {self.nodes} nodes do not fill dragonfly "
                f"groups of {self.dragonfly.nodes_per_group}"
            )
        if self.placement not in ("block", "round_robin"):
            raise MachineError(
                f"{self.name}: placement must be 'block' or 'round_robin', "
                f"got {self.placement!r}"
            )

    # ------------------------------------------------------------------

    @property
    def nranks(self) -> int:
        """Total MPI processes the machine hosts (block rank placement)."""
        return self.nodes * self.ppn

    def node_of(self, rank: int) -> int:
        """Node hosting ``rank`` under this machine's placement.

        Block placement puts ranks 0..ppn-1 on node 0 and so on (the
        Frontier/Polaris launcher default); round-robin strides consecutive
        ranks across nodes.
        """
        if not 0 <= rank < self.nranks:
            raise MachineError(f"rank {rank} out of range for {self.name}")
        if self.placement == "round_robin":
            return rank % self.nodes
        return rank // self.ppn

    def group_of(self, node: int) -> int:
        """Dragonfly group of a node (0 when no dragonfly layer)."""
        if self.dragonfly is None:
            return 0
        return node // self.dragonfly.nodes_per_group

    def same_node(self, a: int, b: int) -> bool:
        """True if ranks ``a`` and ``b`` share a node (intranode link)."""
        return self.node_of(a) == self.node_of(b)

    def crosses_groups(self, a: int, b: int) -> bool:
        """True if ranks ``a`` and ``b`` sit in different dragonfly groups."""
        if self.dragonfly is None:
            return False
        return self.group_of(self.node_of(a)) != self.group_of(self.node_of(b))

    def with_(self, **changes: object) -> "MachineSpec":
        """Derive a modified spec (``dataclasses.replace`` convenience)."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line summary for reports."""
        df = (
            f", dragonfly({self.dragonfly.nodes_per_group}/group)"
            if self.dragonfly
            else ""
        )
        return (
            f"{self.name}: {self.nodes} nodes × {self.ppn} ppn, "
            f"{self.nic_ports} ports{df}"
        )
