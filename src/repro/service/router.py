"""Producer-side service plane: routing, fan-in, admission actuation.

:class:`Router` owns one producer rank's senders across every pipeline
it feeds, held in a :class:`~repro.transport.flows.FlowTable`.  Each
(pipeline, destination endpoint) pair gets its own reliable sender on
the pipeline's tag pair, stamping chunks with the pipeline id so a
misrouted frame is a hard error rather than silent cross-tenant
corruption.  Destinations
are recomputed from the replicated :class:`~repro.service.plan.ShardMap`
on every step, so a shard migration takes effect at the next step
boundary with no sender-side handshake.

:class:`ServiceBridge` composes a Router with the control plane: it
keeps the ``initialize`` / ``execute(data_adaptor)`` / ``finalize``
surface of :class:`repro.sensei.bridge.Bridge`, ships every pipeline
whose mesh the adaptor publishes, and — when admission control is on
(``ControlConfig.quota`` on) — runs the coordination round at step
boundaries: demand is allreduced over the producer group, one rank
decides for the group, every rank applies that, and rank 0 notifies
endpoints of membership changes over the control tag.
"""

from __future__ import annotations

from repro.control.quota import QuotaGovernor, ShardGovernor
from repro.control.rounds import coordination_round
from repro.errors import ExecutionError
from repro.hamr.runtime import current_clock
from repro.mpi.comm import Communicator
from repro.sensei.data_adaptor import DataAdaptor
from repro.service.plan import ServiceConfig, ShardMap, route_producers
from repro.svtk.table import TableData
from repro.transport.flows import CTRL_TAG, FlowTable

__all__ = ["Router", "ServiceBridge"]


class Router:
    """One producer rank's sender fan-out across its pipelines.

    Senders are cached per (pipeline, endpoint world rank) and created
    lazily as routing directs traffic there — except the initial
    destinations, which :meth:`open_initial` creates eagerly so even a
    zero-step run drains every flow with a proper ``fin`` handshake.
    """

    def __init__(
        self,
        config: ServiceConfig,
        world: Communicator,
        m: int,
        n: int,
        shard_map: ShardMap,
        load_board=None,
    ):
        self.config = config
        self.world = world
        self.m = int(m)
        self.n = int(n)
        self.shard_map = shard_map
        self.flows = FlowTable(
            world, "service", "",
            {name: config.tags(name) for name in config.names},
            load_board=load_board,
        )
        #: Live senders keyed (pipeline, endpoint world rank).
        self.senders = self.flows.senders
        #: Quota decisions keyed (pipeline, endpoint index): total
        #: credits granted to the tenant on that endpoint.  Applied to
        #: live senders immediately and replayed onto senders created
        #: later (e.g. after a migration).
        self._grants: dict[tuple[str, int], int] = {}

    def routed(self, name: str) -> dict[int, tuple[int, ...]]:
        """``{endpoint index: producer world ranks}`` under the live map."""
        spec = self.config.spec(name)
        return route_producers(
            spec, self.shard_map.shard(name), spec.producers(self.m)
        )

    def members(self, name: str, endpoint_index: int) -> tuple[int, ...]:
        """Producer world ranks currently routed to ``endpoint_index``."""
        return self.routed(name).get(endpoint_index, ())

    def endpoint_of(self, name: str, producer: int) -> int:
        """Endpoint *index* currently serving ``producer`` on a pipeline."""
        for e, producers in self.routed(name).items():
            if producer in producers:
                return e
        raise ExecutionError(
            f"rank {producer} does not feed pipeline {name!r}"
        )

    def sender_for(self, name: str, endpoint_index: int):
        dest = self.m + int(endpoint_index)
        sender = self.senders.get((name, dest))
        if sender is None:
            sender = self.flows.sender(
                name, dest, self.config.spec(name).transport
            )
            grant = self._grants.get((name, endpoint_index))
            if grant is not None:
                self._set_window(sender, name, endpoint_index, grant)
        return sender

    def open_initial(self) -> None:
        """Eagerly open every pipeline's current flow from this rank."""
        rank = self.world.rank
        for spec in self.config.pipelines:
            if rank in spec.producers(self.m):
                self.sender_for(spec.name, self.endpoint_of(spec.name, rank))

    def _set_window(
        self, sender, name: str, endpoint_index: int, credits: int
    ) -> None:
        # The tenant's endpoint budget is split evenly across the
        # producers currently routed there; each flow gets the slice.
        count = max(1, len(self.members(name, endpoint_index)))
        sender.set_window(max(1, int(credits) // count))

    def grant(self, name: str, endpoint_index: int, credits: int) -> None:
        """Record a quota grant and apply it to the live sender, if any."""
        self._grants[(name, int(endpoint_index))] = int(credits)
        sender = self.senders.get((name, self.m + int(endpoint_index)))
        if sender is not None:
            self._set_window(sender, name, int(endpoint_index), int(credits))

    def close_pipeline(self, name: str) -> None:
        self.flows.close_senders(name)

    def close_all(self) -> None:
        self.flows.close_senders()
        self.flows.release()

    def pipeline_metrics(self, name: str) -> dict:
        """Summed counters over this rank's senders for one pipeline."""
        return self.flows.sender_totals(name)


class ServiceBridge:
    """The simulation-side bridge of the multi-pipeline service.

    What :func:`repro.sensei.intransit.run_in_transit` hands each
    producer (a one-pipeline service) and the multi-tenant superset
    otherwise.  Every producer must call :meth:`execute` for the same
    sequence of time steps (ship nothing for a pipeline by simply not
    publishing its mesh) — the coordination round is a collective over
    the producer group, so cadences must align.
    """

    def __init__(
        self,
        config: ServiceConfig,
        m: int,
        n: int,
        load_board=None,
    ):
        self.config = config
        self.m = int(m)
        self.n = int(n)
        self.load_board = load_board
        self.shard_map = ShardMap.initial(config, n)
        self._world: Communicator | None = None
        self._sim: Communicator | None = None
        self.router: Router | None = None
        self._control = None
        self._quota_governor = None
        self._shard_governor = None
        self._round_step = 0  # step of the admission round in progress
        self._calls: list[tuple] = []  # what the admission governors actuated
        self._initialized = False
        self._finalized = False
        self._finished: set[str] = set()
        self.step_costs: list[float] = []
        self.pipeline_step_costs: dict[str, list[float]] = {
            name: [] for name in config.names
        }
        # Demand accumulators for the next coordination round.
        self._demand: dict[str, int] = {name: 0 for name in config.names}
        self._shipped: dict[str, int] = {name: 0 for name in config.names}

    # -- control plane ---------------------------------------------------------
    def attach_control(self, plane) -> None:
        """Attach a :class:`repro.control.ControlPlane`.

        Per-sender taps wire the codec and flow governors lazily on
        each sender's first step; ``ControlConfig.quota`` on arms the
        service's own coordination round (quota + shard governors) at
        the plane's decision interval.
        """
        self._control = plane

    @property
    def control_plane(self):
        return self._control

    def _wire_admission(self) -> None:
        """Ask the plane for the admission governors (None when off)."""
        cfg = self.config
        plane = self._control
        if plane is None:
            return
        self._quota_governor = plane.governor(
            QuotaGovernor, self, lambda: dict(
                weights={p.name: p.weight for p in cfg.pipelines},
                budget=cfg.budget, min_credits=cfg.min_credits,
                actuator=lambda *call: self._calls.append(call),
            ),
        )
        self._shard_governor = plane.governor(
            ShardGovernor, self, lambda: dict(
                endpoints=self.n, skew=cfg.skew, cooldown=cfg.cooldown,
                actuator=lambda *call: self._calls.append(call),
            ),
        )

    # -- lifecycle -------------------------------------------------------------
    def initialize(self, world_comm: Communicator, sim_comm: Communicator) -> None:
        if self._initialized:
            raise ExecutionError("service bridge already initialized")
        if not (0 <= world_comm.rank < self.m):
            raise ExecutionError(
                f"rank {world_comm.rank} is not a producer in this service"
            )
        self._world = world_comm
        self._sim = sim_comm
        self.router = Router(
            self.config, world_comm, self.m, self.n, self.shard_map,
            load_board=self.load_board,
        )
        self._wire_admission()
        # Open every flow up front so a zero-step run still drains
        # each receiver with a proper fin handshake.
        self.router.open_initial()
        self._initialized = True

    def execute(self, data: DataAdaptor) -> bool:
        if not self._initialized:
            raise ExecutionError("initialize the service bridge first")
        if self._finalized:
            raise ExecutionError("service bridge already finalized")
        clock = current_clock()
        t0 = clock.now
        rank = self._world.rank
        published = set(data.get_mesh_names())
        for spec in self.config.pipelines:
            if spec.name in self._finished or spec.mesh not in published:
                continue
            if rank not in spec.producers(self.m):
                continue
            table = data.get_mesh(spec.mesh)
            if not isinstance(table, TableData):
                raise ExecutionError(
                    f"the service plane ships tables; mesh {spec.mesh!r} "
                    f"of pipeline {spec.name!r} is {type(table).__name__}"
                )
            sender = self.router.sender_for(
                spec.name, self.router.endpoint_of(spec.name, rank)
            )
            ship0 = clock.now
            sender.send_step(data.time_step, data.time, table)
            self.pipeline_step_costs[spec.name].append(clock.now - ship0)
            self._demand[spec.name] += table.nbytes
            self._shipped[spec.name] += 1
            if self._control is not None:
                self._control.observe_transport_step(
                    sender, data.time_step, clock.now - ship0, table=table
                )
        self.step_costs.append(clock.now - t0)
        self._maybe_coordinate(data.time_step)
        return True

    def finish_pipeline(self, name: str) -> None:
        """Drain one pipeline early (fin handshake on its flows).

        The endpoint marks the producer finned and keeps serving the
        remaining tenants — an early-exiting pipeline never stalls
        siblings sharing its endpoints.  The rank keeps participating
        in coordination rounds; the tenant just goes idle there.
        """
        if not self._initialized:
            raise ExecutionError("initialize the service bridge first")
        self.config.spec(name)  # validate
        if name in self._finished:
            return
        self.router.close_pipeline(name)
        self._finished.add(name)

    def finalize(self) -> None:
        if self._finalized or not self._initialized:
            self._finalized = True
            return
        try:
            self.router.close_all()
        finally:
            self._finalized = True
            # Every producer drains before any endpoint is told to
            # stop, else the shutdown could outrun a sibling's data.
            self._sim.barrier()
            if self._sim.rank == 0:
                for e in range(self.n):
                    self._world.send(
                        ("svc_shutdown",), self.m + e, CTRL_TAG,
                        charge=False,
                    )

    # -- coordination ----------------------------------------------------------
    def _maybe_coordinate(self, step: int) -> None:
        """Run the admission round at the plane's decision cadence.

        A collective over the producer group: one rank runs both
        governors on the folded demand against a recording actuator;
        every rank adopts their post-round state, replays their calls on
        its own router and shard map, and logs the same decisions.
        """
        plane, quota, shard = (
            self._control, self._quota_governor, self._shard_governor
        )
        if quota is None or not plane.due(step):
            return
        names = self.config.names
        self._round_step = step

        def decide(folded):
            demand = {n: int(v) for n, v in zip(names, folded["demand"])}
            active = {n: bool(v > 0) for n, v in zip(names, folded["shipped"])}
            shard.observe(step, demand, self.shard_map.as_dict())
            self._calls = moves = []
            decisions = shard.decide(step)
            shards = {**self.shard_map.as_dict(), **dict(moves)}
            quota.observe(step, demand, active, shards)
            self._calls = grants = []
            decisions += quota.decide(step)
            state = dict(quota._alloc), quota._round, shard.gate._hold, shard._round
            return moves, grants, decisions, state

        _folded, (moves, grants, decisions, state) = coordination_round(
            self._sim, {
                "demand": [self._demand[n] for n in names],
                "shipped": [self._shipped[n] for n in names],
            }, decide,
        )
        alloc, quota._round, shard.gate._hold, shard._round = state
        quota._alloc = dict(alloc)
        for move in moves:
            self._migrate(*move)
        for grant in grants:
            self.router.grant(*grant)
        plane.log(decisions)
        for n in names:
            self._demand[n] = 0
            self._shipped[n] = 0

    def _migrate(self, name: str, shard: tuple[int, ...]) -> None:
        """Shard actuator: rewrite the replicated map, tell the endpoints.

        Producers reroute at the next step boundary, so the new
        membership takes effect one step after the round that decided
        it.  Every rank replays the round's moves; rank 0 speaks for
        the group, since the notification need not be replicated.
        """
        self.shard_map.set_shard(name, shard)
        if self._sim.rank != 0:
            return
        routed = self.router.routed(name)
        effective = self._round_step + 1
        for e in range(self.n):
            self._world.send(
                ("svc_migrate", effective, name, routed.get(e, ())),
                self.m + e, CTRL_TAG, charge=False,
            )

    # -- reporting -------------------------------------------------------------
    @property
    def metrics(self):
        """Single-flow counters when the service has exactly one flow
        (the legacy bridge surface); per-flow dict otherwise."""
        if self.router is None:
            return None
        metrics = {k: s.metrics for k, s in sorted(self.router.senders.items())}
        if len(metrics) == 1:
            return next(iter(metrics.values()))
        return metrics

    def pipeline_metrics(self, name: str) -> dict:
        if self.router is None:
            raise ExecutionError("initialize the service bridge first")
        return self.router.pipeline_metrics(name)
