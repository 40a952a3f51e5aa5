"""Endpoint-side service runtime and the ``run_service`` entry point.

An endpoint serves *every* pipeline whose shard includes it — and,
because shard migrations can route any pipeline its way later, it
pre-opens a receiver for every (pipeline, producer) flow and lets the
merger's membership ledger decide whose data each step actually waits
on.  One single-threaded sweep loop multiplexes all flows: drain
control messages, poll receivers, process whatever steps completed.

:class:`StepMerger` is the heart of elastic membership: per-step
contributor sets follow the membership updates producers announce at
migration time, finned producers stop being waited on (early-exiting
pipelines never stall siblings), and data racing ahead of its
membership update simply parks until the update arrives.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.errors import ExecutionError, MPIError, TransportError
from repro.mpi.comm import CommCostModel, Communicator, run_spmd
from repro.sensei.data_adaptor import TableDataAdaptor
from repro.service.plan import PipelineRegistry, ServiceConfig, ShardMap, route_producers
from repro.service.router import ServiceBridge
from repro.svtk.table import TableData
from repro.transport.flows import CTRL_TAG, FlowTable

__all__ = ["StepMerger", "ServiceEndpoint", "run_service"]


class StepMerger:
    """Orders one pipeline's per-producer step streams on one endpoint.

    Membership is step-indexed: ``set_membership(from_step, members)``
    records that from ``from_step`` on, a step is complete once every
    producer in ``members`` contributed (finned producers excepted).
    Data from a producer outside the current membership is held — it
    belongs to a membership update still in flight, never dropped.
    """

    def __init__(self, producers: Sequence[int], members: Sequence[int]):
        self.queues: dict[int, deque] = {int(p): deque() for p in producers}
        self.finned: set[int] = set()
        #: (from_step, members) history, ascending.  Initial entry
        #: covers every step until the first migration.
        self._membership: list[tuple[int, frozenset[int]]] = [
            (-1, frozenset(int(p) for p in members))
        ]

    def members_at(self, step: int) -> frozenset[int]:
        current = self._membership[0][1]
        for from_step, members in self._membership:
            if from_step > step:
                break
            current = members
        return current

    def set_membership(self, from_step: int, members: Sequence[int]) -> None:
        entry = (int(from_step), frozenset(int(p) for p in members))
        self._membership.append(entry)
        self._membership.sort(key=lambda e: e[0])

    def push(self, producer: int, step: int, sim_time: float, columns) -> None:
        if producer not in self.queues:
            raise TransportError(
                f"unknown producer {producer} pushed step {step}"
            )
        self.queues[producer].append((int(step), float(sim_time), columns))

    def mark_finned(self, producer: int) -> None:
        self.finned.add(int(producer))

    @property
    def pending(self) -> int:
        """Queued step payloads not yet merged."""
        return sum(len(q) for q in self.queues.values())

    def ready(self):
        """Pop the next complete step, or None if one is still filling.

        Returns ``(step, sim_time, payloads)`` with payloads in
        producer-rank order.
        """
        heads = {
            p: q[0][0] for p, q in self.queues.items() if q
        }
        if not heads:
            return None
        step = min(heads.values())
        members = self.members_at(step)
        # Data from a non-member at this step means its membership
        # update is still in flight — wait for the control message.
        if any(heads[p] == step for p in heads if p not in members):
            return None
        contributors = []
        for p in sorted(members):
            queue = self.queues[p]
            if queue and queue[0][0] == step:
                contributors.append(p)
            elif queue and queue[0][0] > step:
                continue  # this producer skipped the step
            elif p in self.finned:
                continue  # drained early; don't wait on it
            else:
                return None  # still in flight
        if not contributors:
            return None
        sim_time = self.queues[contributors[0]][0][1]
        payloads = [self.queues[p].popleft()[2] for p in contributors]
        return step, sim_time, payloads


class ServiceEndpoint:
    """One endpoint rank: receives, merges, and analyzes every tenant.

    What :func:`repro.sensei.intransit.run_in_transit` returns per
    endpoint: with a single pipeline the reporting surface
    (``receivers``, ``analyses``, ``producers``, ``steps_processed``)
    takes its flat one-tenant shape.
    """

    def __init__(
        self,
        config: ServiceConfig,
        registry: PipelineRegistry,
        world_comm: Communicator,
        endpoint_comm: Communicator,
        m: int,
        n: int,
    ):
        if not (m <= world_comm.rank < m + n):
            raise ExecutionError(
                f"rank {world_comm.rank} is not an endpoint in this service"
            )
        self.config = config
        self.world = world_comm
        self.endpoint_comm = endpoint_comm
        self.m = int(m)
        self.n = int(n)
        self.endpoint_index = world_comm.rank - self.m
        self.shard_map = ShardMap.initial(config, n)
        # One solo communicator shared by every non-collective tenant;
        # a single uniform split keeps the collective call pattern
        # identical across endpoint ranks.
        self._solo = endpoint_comm.split(color=endpoint_comm.rank)
        self.flows = FlowTable(
            world_comm, "service", "",
            {name: config.tags(name) for name in config.names},
        )
        #: Live receivers keyed (pipeline, producer world rank).
        self._receivers = self.flows.receivers
        self.mergers: dict[str, StepMerger] = {}
        self._analyses: dict[str, list] = {}
        self._adaptors: dict[str, TableDataAdaptor] = {}
        self._analysis_comms: dict[str, Communicator] = {}
        self.pipeline_steps: dict[str, int] = {}
        self._initial_members: dict[str, tuple[int, ...]] = {}
        for spec in config.pipelines:
            producers = spec.producers(self.m)
            routed = route_producers(
                spec, self.shard_map.shard(spec.name), producers
            )
            members = routed.get(self.endpoint_index, ())
            # Flows are instantiated only for producers actually routed
            # here (plus any that migrate in later): at scale an
            # endpoint hosts a few tenants' members, not the full
            # (pipeline x producer) cross product.
            for p in members:
                self._ensure_flow(spec.name, p)
            self._initial_members[spec.name] = members
            self.mergers[spec.name] = StepMerger(producers, members)
            self._analyses[spec.name] = list(registry.build(spec.name))
            comm = endpoint_comm if spec.collective else self._solo
            self._analysis_comms[spec.name] = comm
            self._adaptors[spec.name] = TableDataAdaptor(comm=comm)
            self.pipeline_steps[spec.name] = 0
        self._single = config.pipelines[0].name if len(
            config.pipelines
        ) == 1 else None

    # -- legacy-compatible reporting -------------------------------------------
    @property
    def steps_processed(self) -> int:
        return sum(self.pipeline_steps.values())

    @property
    def receiver_metrics(self) -> dict:
        return {key: r.metrics for key, r in sorted(self.receivers.items())}

    @property
    def receivers(self) -> dict:
        """Per-flow receivers.  With a single pipeline, keyed by
        producer rank over the initial members; keyed
        ``(pipeline, producer)`` over every flow otherwise."""
        if self._single is not None:
            return {
                p: self._receivers[(self._single, p)]
                for p in self._initial_members[self._single]
            }
        return dict(self._receivers)

    @property
    def analyses(self):
        """The single pipeline's analysis list (legacy surface), or
        the per-pipeline dict for a multi-tenant service."""
        if self._single is not None:
            return self._analyses[self._single]
        return dict(self._analyses)

    # -- serving ---------------------------------------------------------------
    def _ensure_flow(self, name: str, producer: int) -> None:
        """Instantiate the reliable flow for one routed producer.

        Called for initial members at construction and for migrated-in
        members when the ``svc_migrate`` control message lands; chunks
        that raced ahead of the control message simply wait in the
        producer's mailbox until the receiver exists.
        """
        self.flows.receiver(name, producer, self.config.spec(name).transport)

    def _assemble(self, adaptor, name: str, payloads: list[dict]) -> None:
        """Hand ``adaptor`` one step's table, its producers' rows joined."""
        spec = self.config.spec(name)
        table = TableData(spec.mesh)
        adaptor.set_table(spec.mesh, table)
        if not payloads:
            return
        columns = list(payloads[0])
        for payload in payloads[1:]:
            if list(payload) != columns:
                raise MPIError("producers shipped inconsistent column sets")
        for column in columns:  # one producer's array is handed over as is
            parts = [p[column] for p in payloads]
            table.add_host_column(column, parts[0] if len(parts) == 1 else np.concatenate(parts))

    def _drain_control(self) -> tuple[bool, bool]:
        """Returns (made_progress, saw_shutdown)."""
        progress, shutdown = False, False
        while True:
            found, msg = self.world.try_recv(0, CTRL_TAG, charge=False)
            if not found:
                return progress, shutdown
            progress = True
            if msg[0] == "svc_shutdown":
                shutdown = True
            elif msg[0] == "svc_migrate":
                _kind, from_step, name, members = msg
                for p in members:
                    self._ensure_flow(name, p)
                self.mergers[name].set_membership(from_step, members)
            else:
                raise TransportError(
                    f"unknown service control message {msg[0]!r}"
                )

    def _poll_flows(self) -> bool:
        progress = False
        for key in sorted(self._receivers):
            receiver = self._receivers[key]
            if receiver.finished:
                continue
            while True:
                out = receiver.poll()
                if out is None:
                    break
                progress = True
                kind, value = out
                name, producer = key
                if kind == "fin":
                    self.mergers[name].mark_finned(producer)
                    break
                step, sim_time, columns = value
                self.mergers[name].push(producer, step, sim_time, columns)
        return progress

    def _process_ready(self) -> bool:
        progress = False
        for name in sorted(self.mergers):
            merger = self.mergers[name]
            while True:
                complete = merger.ready()
                if complete is None:
                    break
                progress = True
                step, sim_time, payloads = complete
                adaptor = self._adaptors[name]
                self._assemble(adaptor, name, payloads)
                adaptor.set_step(step, sim_time)
                for analysis in self._analyses[name]:
                    analysis.execute(adaptor)
                # Hold the step from assembly until its analyses return:
                # an asynchronous analysis deep-copied what it needs.
                adaptor.release_data()
                self.pipeline_steps[name] += 1
        return progress

    def serve(self) -> int:
        """Multiplex every tenant until the producers shut us down."""
        for name in sorted(self._analyses):
            for analysis in self._analyses[name]:
                analysis.initialize(self._analysis_comms[name])
        shutdown = False
        arrivals = 0
        while True:
            ctrl_progress, saw_shutdown = self._drain_control()
            shutdown = shutdown or saw_shutdown
            progress = ctrl_progress
            progress |= self._poll_flows()
            progress |= self._process_ready()
            if progress:
                continue
            if shutdown:
                stuck = {
                    name: merger.pending
                    for name, merger in sorted(self.mergers.items())
                    if merger.pending
                }
                if stuck:
                    raise TransportError(
                        "service endpoint shut down with unmerged steps",
                        details={
                            "rank": self.world.rank,
                            "pending": stuck,
                        },
                    )
                break
            # Park until a message arrives that this sweep has not
            # seen.  Counting arrivals (not "some mailbox is non-empty")
            # matters: chunks for a flow whose svc_migrate has not
            # landed sit unread and must not spin the loop.  A starved
            # endpoint is the wait table's DeadlockError.
            arrivals = self.world.wait_arrival(arrivals)
        self.flows.release()
        for name in sorted(self._analyses):
            for analysis in self._analyses[name]:
                analysis.finalize()
        return self.steps_processed


def run_service(
    config: ServiceConfig,
    producer_main: Callable[[Communicator, ServiceBridge], object],
    registry: PipelineRegistry | Mapping[str, Callable] | None = None,
    m: int = 1,
    n: int = 1,
    cost: CommCostModel | None = None,
    control=None,
    load_board=None,
    recorder=None,
) -> tuple[list[object], list[ServiceEndpoint]]:
    """Launch the sharded multi-pipeline in-transit service.

    ``m`` producer ranks run ``producer_main(sim_comm, bridge)`` and
    ship through a :class:`~repro.service.router.ServiceBridge`;
    ``n`` endpoint ranks serve every pipeline the shard map routes to
    them, with analyses built from ``registry`` (a
    :class:`~repro.service.plan.PipelineRegistry` or plain mapping of
    pipeline name to factory).  ``control`` (a
    :class:`repro.control.ControlConfig`) attaches a control plane per
    producer; ``ControlConfig.quota`` on arms per-tenant admission
    control and shard rebalancing.  ``load_board`` (a
    :class:`~repro.service.load.LoadBoard`) makes concurrent tenants
    share each endpoint's congestion budget.  ``recorder`` (duck-typed;
    see :class:`repro.trace.TraceRecorder`) wraps each producer's
    bridge via ``recorder.bind(rank, bridge)`` to capture a
    deterministic trace of the run.

    Returns ``(producer_results, endpoints)``.
    """
    if m < 1 or n < 1:
        raise ExecutionError(f"need m >= 1 and n >= 1, got {m}/{n}")
    if not isinstance(registry, PipelineRegistry):
        registry = PipelineRegistry(registry)

    def world_main(comm: Communicator):
        if comm.rank < m:
            sim_comm = comm.split(color=0, key=comm.rank)
            bridge = ServiceBridge(config, m, n, load_board=load_board)
            if control is not None:
                from repro.control.plan import ControlPlane

                bridge.attach_control(ControlPlane(control))
            bridge.initialize(comm, sim_comm)
            if recorder is not None:
                bridge = recorder.bind(sim_comm.rank, bridge)
            try:
                result = producer_main(sim_comm, bridge)
            finally:
                bridge.finalize()
            return ("producer", result, bridge)
        endpoint_comm = comm.split(color=1, key=comm.rank)
        endpoint = ServiceEndpoint(
            config, registry, comm, endpoint_comm, m, n
        )
        endpoint.serve()
        return ("endpoint", endpoint, None)

    out = run_spmd(m + n, world_main, cost=cost)
    producers = [r for kind, r, _b in out if kind == "producer"]
    endpoints = [r for kind, r, _b in out if kind == "endpoint"]
    return producers, endpoints
