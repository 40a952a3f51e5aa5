"""Run specifications: the Table 1 matrix.

| Num.  | In-Situ   | Ranks    |       | In-Situ             |
| Nodes | Method    | per node | Total | Location            |
| 128   | lock step | 4        | 512   | all on host         |
|       |           | 4        | 512   | on same device      |
|       |           | 3        | 384   | 1 dedicated device  |
|       |           | 2        | 256   | 2 dedicated devices |
|       | asynchr.  | 4        | 512   | all on host         |
|       |           | 4        | 512   | on same device      |
|       |           | 3        | 384   | 1 dedicated device  |
|       |           | 2        | 256   | 2 dedicated devices |

"For all four in situ placements each simulation rank is assigned a
specific GPU, there is always only 1 simulation rank per GPU."
(Section 4.3)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import PlacementError
from repro.sensei.execution import ExecutionMethod
from repro.sensei.placement import DevicePlacement

__all__ = ["InSituPlacement", "RunSpec", "table1_matrix"]


class InSituPlacement(enum.Enum):
    """The four in situ placements of Section 4.3."""

    HOST = "all on host"
    SAME_DEVICE = "on same device"
    DEDICATED_1 = "1 dedicated device"
    DEDICATED_2 = "2 dedicated devices"


@dataclass(frozen=True)
class RunSpec:
    """One run of the placement study."""

    placement: InSituPlacement
    method: ExecutionMethod
    nodes: int = 128
    gpus_per_node: int = 4

    def __post_init__(self):
        if self.nodes < 1 or self.gpus_per_node < 1:
            raise PlacementError("nodes and gpus_per_node must be >= 1")
        if (
            self.placement is InSituPlacement.DEDICATED_2
            and self.gpus_per_node % 2
        ):
            raise PlacementError(
                "two-dedicated-devices placement needs an even GPU count"
            )

    # -- Table 1 accounting ------------------------------------------------------
    @property
    def ranks_per_node(self) -> int:
        """One simulation rank per simulation GPU."""
        if self.placement is InSituPlacement.DEDICATED_1:
            return self.gpus_per_node - 1
        if self.placement is InSituPlacement.DEDICATED_2:
            return self.gpus_per_node // 2
        return self.gpus_per_node

    @property
    def total_ranks(self) -> int:
        return self.nodes * self.ranks_per_node

    @property
    def insitu_gpus_per_node(self) -> int:
        """GPUs reserved exclusively for in situ processing."""
        if self.placement is InSituPlacement.DEDICATED_1:
            return 1
        if self.placement is InSituPlacement.DEDICATED_2:
            return self.gpus_per_node // 2
        return 0

    @property
    def insitu_on_host(self) -> bool:
        return self.placement is InSituPlacement.HOST

    # -- SENSEI configuration -----------------------------------------------------
    def insitu_device_placement(self) -> DevicePlacement:
        """The paper's Eq. 1 parameters realizing this placement.

        - host: analysis on the CPU;
        - same device: d = r mod n_a — the rank's own simulation GPU;
        - 1 dedicated: every rank's analysis on the last GPU
          (n_u = 1, d_0 = n_a - 1);
        - 2 dedicated: rank paired with a reserved GPU in the upper half
          (n_u = ranks/node, d_0 = ranks/node).
        """
        if self.placement is InSituPlacement.HOST:
            return DevicePlacement.host()
        if self.placement is InSituPlacement.SAME_DEVICE:
            return DevicePlacement.auto()
        if self.placement is InSituPlacement.DEDICATED_1:
            return DevicePlacement.auto(n_use=1, offset=self.gpus_per_node - 1)
        # DEDICATED_2: ranks 0..k-1 drive sim GPUs 0..k-1, analysis GPUs k..2k-1.
        k = self.ranks_per_node
        return DevicePlacement.auto(n_use=k, offset=k)

    @property
    def label(self) -> str:
        m = "lockstep" if self.method is ExecutionMethod.LOCKSTEP else "asynchronous"
        return f"{self.placement.value} / {m}"

    def __str__(self) -> str:
        return self.label


def table1_matrix(nodes: int = 128, gpus_per_node: int = 4) -> list[RunSpec]:
    """The eight runs of Table 1 (lockstep cases first, as printed)."""
    placements = [
        InSituPlacement.HOST,
        InSituPlacement.SAME_DEVICE,
        InSituPlacement.DEDICATED_1,
        InSituPlacement.DEDICATED_2,
    ]
    return [
        RunSpec(placement=p, method=m, nodes=nodes, gpus_per_node=gpus_per_node)
        for m in (ExecutionMethod.LOCKSTEP, ExecutionMethod.ASYNCHRONOUS)
        for p in placements
    ]
