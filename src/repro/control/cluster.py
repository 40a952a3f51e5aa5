"""Cross-rank placement coordination: the cluster placement governor.

:class:`~repro.control.governors.PlacementGovernor` evaluates Eq. 1
per rank, which leaves a blind spot the ROADMAP names: two ranks on
one node can independently "flee" an overloaded device to the *same*
calm one and crowd it — each rank's local view says the move is good,
and neither can see the other deciding the same thing.  The
:class:`ClusterPlacementGovernor` closes that loop collectively:

1. every participating rank contributes a per-device load vector
   (busy fraction dilated by contention sharers, its own contribution
   to its current device, resident pool bytes, and a one-hot of the
   device Eq. 1 currently resolves to for it);
2. one :func:`~repro.control.rounds.coordination_round` folds the
   vectors — its epoch counter turns cadence skew between ranks into
   a structured error instead of a deadlock;
3. every rank derives the *same* external-load picture (node busy
   minus what the governed ranks themselves contribute — the load that
   will not move when they do), detects **crowding** (>= 2 ranks
   resolved to one device while another sits idle), and, when
   triggered, computes the *same* node-consistent re-aim through
   :func:`repro.sensei.placement.reaim` — new Eq. 1
   ``n_use``/``stride``/``offset`` whose rank image spreads the
   participants over the calmest devices.

Because the aggregated vector, the trigger, and the re-aim rule are
pure functions of the allreduced data, all ranks apply the identical
:class:`~repro.sensei.placement.DevicePlacement` on the same step —
per-rank Eq. 1 resolution then fans them out across the target set
instead of piling them onto one device.  Crowding findings are logged
as decisions (and therefore exported as Chrome-trace instant events by
:meth:`~repro.control.plan.ControlPlane.chrome_instant_events`) even
when no re-aim results.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from repro.control.governors import Decision, PlacementGovernor
from repro.control.rounds import coordination_round
from repro.hw.node import num_devices
from repro.mpi.comm import Communicator
from repro.sensei.placement import DevicePlacement, reaim

__all__ = ["ClusterPlacementGovernor"]


class ClusterPlacementGovernor(PlacementGovernor):
    """Allreduce-coordinated Eq. 1 re-aim, node-consistent across ranks.

    One instance lives on each participating rank; :meth:`decide` is
    **collective** — every rank of ``comm`` must call it with the same
    step, the way ranks call any blocking collective together.
    ``overload`` is the re-aim trigger threshold relative to the
    node-mean external load, matching the per-rank governor's knob.
    """

    name = "cluster"
    switch = "placement"

    #: Weight folding resident pool bytes into the device score (a
    #: device whose pool hoards memory is a worse target even when idle).
    RESIDENT_WEIGHT = 0.25

    def __init__(
        self,
        comm: Communicator,
        actuator: Callable[[DevicePlacement], None] | None = None,
        rank: int | None = None,
        base: DevicePlacement | None = None,
        overload: float = 1.30,
        enabled: bool = True,
        frozen: bool = False,
    ):
        super().__init__(
            actuator, comm.rank if rank is None else rank, base, overload,
            enabled, frozen,
        )
        self.comm = comm
        self.n_devices = num_devices()
        self._resident: dict[int, int] = {}
        self._self_load = 0.0
        #: Flow governor fed node-mean retry/latency signals each round.
        self._flow = None  # FlowGovernor | None
        #: Crowding findings from the latest round (reporting access).
        self.last_crowding: Decision | None = None
        self.rounds = 0

    def attach_flow(self, governor) -> None:
        """Piggyback a flow governor's signals on the placement round.

        Each coordination allreduce then also folds the per-rank
        retry-rate and ACK-latency estimates; the node means are pushed
        back into the governor (:meth:`FlowGovernor.ingest_node`) so
        every rank's window converges on the same AIMD trajectory.
        Idempotent; safe whether or not any rank has a flow governor —
        ranks without one contribute zeros, and the vector layout is
        identical either way.
        """
        self._flow = governor

    # -- sensors ---------------------------------------------------------------
    def observe(
        self,
        step: int,
        loads: Mapping[int, float],
        parties: Mapping[int, int] | None = None,
        self_load: float = 0.0,
        resident_bytes: Mapping[int, int] | None = None,
    ) -> None:
        """This rank's latest per-device measurements.

        ``loads`` are node-wide busy fractions as this rank sees them;
        ``self_load`` is the slice of its *own* current device's busy
        fraction this rank itself produced (the load that moves with
        it); ``resident_bytes`` is per-device resident pool footprint.
        """
        super().observe(step, loads, parties)
        self._self_load = max(0.0, float(self_load))
        self._resident = (
            {int(d): int(v) for d, v in resident_bytes.items()}
            if resident_bytes
            else {}
        )

    # -- the collective round -----------------------------------------------------
    def _contribution(self, current: int) -> dict[str, list[float]]:
        """This rank's fields of the round, ``n`` slots per device field.

        ``busy`` is the dilated node load, ``own`` this rank's slice of
        its current device, ``aimed`` a one-hot of that device, ``ranks``
        the participation count.  The flow fields are *always* present
        (zeros when no flow governor is attached) so layouts match
        across ranks regardless of which ranks govern their transport.
        """
        n = self.n_devices
        own, aimed = [0.0] * n, [0.0] * n
        if 0 <= current < n:
            own[current] = self._self_load * self.dilation(current)
            aimed[current] = 1.0
        flow = self._flow
        return {
            "busy": [
                self._loads.get(d, 0.0) * self.dilation(d) for d in range(n)
            ],
            "own": own,
            "resident": [float(self._resident.get(d, 0)) for d in range(n)],
            "aimed": aimed,
            "ranks": [1.0],
            "retry": [flow.local_retry_rate if flow is not None else 0.0],
            "ack": [flow.local_ack_estimate if flow is not None else 0.0],
        }

    def decide(self, step: int, t: float | None = None) -> list[Decision]:
        """One coordination round: a crowding finding and/or a re-aim.

        Collective over ``comm`` — every rank calls with the same step.
        Disabled governors still participate (contributing zeros and
        never re-aiming) so enable-state mismatches between ranks show
        up as epoch skew, not a hang.
        """
        n = self.n_devices
        current = (
            self.placement.resolve(self.rank, n_available=n)
            if self.enabled
            else -1
        )
        local = self._contribution(current)
        if not self.enabled:
            local = {
                name: [0.0] * len(values)
                for name, values in sorted(local.items())
            }
        total = coordination_round(self.comm, local)
        self.rounds += 1
        if not self.enabled:
            return []
        ranks_total = int(round(total["ranks"][0]))
        if ranks_total < 1:
            return []
        if self._flow is not None:
            # Node-consistent windows: every rank's flow governor acts
            # on the same node-mean retry/latency signals from here on.
            self._flow.ingest_node(
                float(total["retry"][0]) / ranks_total,
                float(total["ack"][0]) / ranks_total,
            )
        busy_mean = total["busy"] / ranks_total
        self_sum = total["own"]
        resident = total["resident"]
        counts = total["aimed"]
        # External load: what stays on a device when the governed ranks
        # move off it.  Resident pool bytes tip ties toward devices
        # with headroom.
        external = np.maximum(0.0, busy_mean - self_sum)
        resident_total = float(resident.sum())
        score = external + (
            self.RESIDENT_WEIGHT * resident / resident_total
            if resident_total > 0
            else 0.0
        )

        decisions: list[Decision] = []
        crowded = [
            (d, int(round(counts[d]))) for d in range(n) if counts[d] >= 2
        ]
        idle = [d for d in range(n) if counts[d] == 0]
        self.last_crowding = None
        if crowded and idle:
            self.last_crowding = self._decision(
                step,
                t,
                "crowding",
                f"devices {[d for d, _c in crowded]} carry >=2 ranks each "
                f"while {idle} sit idle",
                applied=False,
                crowded=tuple(crowded),
                idle=tuple(idle),
                counts=tuple(int(round(c)) for c in counts),
            )
            decisions.append(self.last_crowding)

        mean_score = float(score.mean())
        occupied = [d for d in range(n) if counts[d] > 0]
        overloaded = [
            d for d in occupied if mean_score > 0
            and score[d] > self.overload * mean_score
        ]
        if not (crowded and idle) and not overloaded:
            return decisions
        k = min(ranks_total, n)
        order = sorted(range(n), key=lambda d: (score[d], d))
        targets = order[:k]
        proposal = reaim(targets, n_available=n)
        if proposal == self.placement:
            return decisions
        applied = self._actuate(proposal)
        previous = self.placement
        if applied:
            self.placement = proposal
        decisions.append(
            self._decision(
                step,
                t,
                f"placement=auto(n_use={proposal.n_use}, "
                f"stride={proposal.stride}, offset={proposal.offset})",
                f"coordinated re-aim over {ranks_total} ranks: targets "
                f"{targets} (external loads "
                f"{[round(float(s), 3) for s in score]})",
                applied,
                previous=(
                    f"auto(n_use={previous.n_use}, stride={previous.stride}, "
                    f"offset={previous.offset})"
                ),
                targets=tuple(targets),
                ranks=ranks_total,
                crowding=bool(crowded and idle),
            )
        )
        return decisions
