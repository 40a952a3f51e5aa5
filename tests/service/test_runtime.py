"""End-to-end tests for the multi-pipeline service runtime."""

from __future__ import annotations

import numpy as np
import pytest

from repro.control.plan import ControlConfig
from repro.errors import ExecutionError
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.data_adaptor import TableDataAdaptor
from repro.service import (
    LoadBoard,
    PipelineSpec,
    ServiceConfig,
    run_service,
)
from repro.svtk.table import TableData


class Recorder(AnalysisAdaptor):
    """Collects (step, row_count) per executed step."""

    def __init__(self, name="recorder"):
        super().__init__(name)
        self.seen: list[tuple[int, int]] = []

    def acquire(self, data, deep):
        mesh_name = data.get_mesh_names()[0]
        return (data.time_step, data.get_mesh(mesh_name).n_rows)

    def process(self, payload, comm, device_id):
        self.seen.append(payload)


def _table(mesh, rows, value):
    t = TableData(mesh)
    t.add_host_column("x", np.full(rows, float(value)))
    return t


def _adaptor(meshes: dict, step: int):
    da = TableDataAdaptor(dict(meshes))
    da.set_step(step, 0.1 * step)
    return da


def _two_pipeline_config(**kw):
    return ServiceConfig(
        pipelines=(
            PipelineSpec(name="alpha", weight=1.0),
            PipelineSpec(name="beta", weight=1.0),
        ),
        **kw,
    )


def _registry():
    return {"alpha": lambda: [Recorder("ra")],
            "beta": lambda: [Recorder("rb")]}


class TestMultiPipeline:
    def test_two_tenants_shard_across_endpoints(self):
        config = _two_pipeline_config()

        def producer_main(sim_comm, bridge):
            for step in range(4):
                bridge.execute(_adaptor({
                    "alpha": _table("alpha", 4, sim_comm.rank),
                    "beta": _table("beta", 2, sim_comm.rank),
                }, step))
            return sim_comm.rank

        producers, endpoints = run_service(
            config, producer_main, _registry(), m=2, n=2,
        )
        assert producers == [0, 1]
        # LPT placement: alpha on endpoint 0, beta on endpoint 1.
        steps = {
            name: sum(ep.pipeline_steps[name] for ep in endpoints)
            for name in ("alpha", "beta")
        }
        assert steps == {"alpha": 4, "beta": 4}
        assert endpoints[0].pipeline_steps["alpha"] == 4
        assert endpoints[1].pipeline_steps["beta"] == 4
        # Both producers' rows concatenated per step, per pipeline.
        ra = endpoints[0].analyses["alpha"][0]
        assert ra.seen == [(s, 8) for s in range(4)]
        rb = endpoints[1].analyses["beta"][0]
        assert rb.seen == [(s, 4) for s in range(4)]

    def test_early_fin_does_not_stall_siblings(self):
        config = _two_pipeline_config()

        def producer_main(sim_comm, bridge):
            for step in range(4):
                meshes = {"alpha": _table("alpha", 4, 1.0)}
                if step < 1:
                    meshes["beta"] = _table("beta", 2, 2.0)
                bridge.execute(_adaptor(meshes, step))
                if step == 0:
                    bridge.finish_pipeline("beta")
                    bridge.finish_pipeline("beta")  # idempotent
            return True

        _, endpoints = run_service(
            config, producer_main, _registry(), m=2, n=2,
        )
        steps = {
            name: sum(ep.pipeline_steps[name] for ep in endpoints)
            for name in ("alpha", "beta")
        }
        assert steps == {"alpha": 4, "beta": 1}

    def test_late_joining_pipeline(self):
        config = _two_pipeline_config()

        def producer_main(sim_comm, bridge):
            for step in range(4):
                meshes = {"alpha": _table("alpha", 4, 1.0)}
                if step >= 2:  # beta only starts publishing at step 2
                    meshes["beta"] = _table("beta", 2, 2.0)
                bridge.execute(_adaptor(meshes, step))
            return True

        _, endpoints = run_service(
            config, producer_main, _registry(), m=2, n=2,
        )
        beta_steps = [
            s for ep in endpoints
            for (s, _rows) in (
                ep.analyses["beta"][0].seen if "beta" in ep.analyses else ()
            )
        ]
        assert sorted(beta_steps) == [2, 3]
        assert sum(ep.pipeline_steps["alpha"] for ep in endpoints) == 4

    def test_rank_subset_pipelines(self):
        config = ServiceConfig(pipelines=(
            PipelineSpec(name="alpha", ranks=(0,)),
            PipelineSpec(name="beta", ranks=(1, 2)),
        ))

        def producer_main(sim_comm, bridge):
            for step in range(3):
                meshes = {}
                if sim_comm.rank == 0:
                    meshes["alpha"] = _table("alpha", 4, 0.0)
                else:
                    meshes["beta"] = _table("beta", 2, 1.0)
                bridge.execute(_adaptor(meshes, step))
            return True

        _, endpoints = run_service(
            config, producer_main, _registry(), m=3, n=2,
        )
        assert sum(ep.pipeline_steps["alpha"] for ep in endpoints) == 3
        assert sum(ep.pipeline_steps["beta"] for ep in endpoints) == 3
        # beta's two producers were concatenated on its endpoint.
        rows = {
            rows for ep in endpoints
            for (_s, rows) in ep.analyses["beta"][0].seen
        }
        assert rows <= {4} and rows

    def test_zero_step_service_drains(self):
        config = _two_pipeline_config()
        _, endpoints = run_service(
            config, lambda sim, bridge: 0, _registry(), m=2, n=2,
        )
        assert all(ep.steps_processed == 0 for ep in endpoints)
        # Every initially-routed flow saw a graceful fin.
        for ep in endpoints:
            for (name, p), r in ep.receivers.items():
                if p in ep._initial_members[name]:
                    assert r.finished

    def test_lifecycle_errors(self):
        config = _two_pipeline_config()

        def producer_main(sim_comm, bridge):
            out = []
            try:
                bridge.finish_pipeline("ghost")
            except Exception as exc:
                out.append(type(exc).__name__)
            bridge.finalize()
            bridge.finalize()  # idempotent
            try:
                bridge.execute(_adaptor({}, 0))
            except ExecutionError:
                out.append("rejected")
            return out

        producers, _ = run_service(
            config, producer_main, _registry(), m=1, n=1,
        )
        assert producers == [["ConfigError", "rejected"]]

    def test_bad_mn_rejected(self):
        with pytest.raises(ExecutionError):
            run_service(_two_pipeline_config(), lambda s, b: 0, {}, m=0, n=1)


class TestAdmissionControl:
    def _config(self):
        # Three equal-weight tenants over two endpoints: a and c start
        # together on endpoint 0, b alone on endpoint 1.
        return ServiceConfig(
            pipelines=(
                PipelineSpec(name="a"),
                PipelineSpec(name="b"),
                PipelineSpec(name="c"),
            ),
            budget=16,
            skew=1.3,
            cooldown=1,
        )

    def _registry(self):
        return {n: (lambda n=n: [Recorder(f"r{n}")]) for n in "abc"}

    def test_skewed_tenant_migrates_and_quota_follows(self):
        control = ControlConfig.from_xml_attrs(
            {"quota": "on", "interval": "2"}
        )

        def producer_main(sim_comm, bridge):
            for step in range(8):
                bridge.execute(_adaptor({
                    "a": _table("a", 64, 1.0),
                    "b": _table("b", 8, 2.0),
                    "c": _table("c", 4096, 3.0),  # the heavy tenant
                }, step))
            plane = bridge.control_plane
            return [d.to_dict() for d in plane.decisions]

        logs, endpoints = run_service(
            self._config(), producer_main, self._registry(),
            m=2, n=2, control=control,
        )
        governors = {d["governor"] for log in logs for d in log}
        assert "quota" in governors and "shard" in governors
        migrations = [
            d for d in logs[0]
            if d["governor"] == "shard" and d["applied"]
        ]
        assert migrations and migrations[0]["args"]["pipeline"] == "c"
        # Both ranks walked identical decision logs (replicated state).
        strip = lambda log: [
            {k: v for k, v in d.items() if k != "time"} for d in log
        ]
        assert strip(logs[0]) == strip(logs[1])
        # The heavy tenant kept flowing across the migration: all 8
        # steps arrived, split between old and new endpoints.
        assert sum(ep.pipeline_steps["c"] for ep in endpoints) == 8
        assert all(
            ep.pipeline_steps["c"] > 0 for ep in endpoints
        ), "migration should spread c across both endpoints"
        # Quota grants shrank the light tenants' windows on the shared
        # endpoint relative to the heavy tenant's fair share.
        quota = [d for d in logs[0] if d["governor"] == "quota"]
        assert quota and all(d["applied"] for d in quota)

    def test_quota_off_means_no_rounds(self):
        def producer_main(sim_comm, bridge):
            for step in range(2):
                bridge.execute(_adaptor({
                    "a": _table("a", 8, 1.0),
                    "b": _table("b", 8, 2.0),
                    "c": _table("c", 8, 3.0),
                }, step))
            plane = bridge.control_plane
            return [d.governor for d in plane.decisions]

        control = ControlConfig.from_xml_attrs({})  # quota defaults off
        logs, _ = run_service(
            self._config(), producer_main, self._registry(),
            m=2, n=2, control=control,
        )
        for log in logs:
            assert "quota" not in log and "shard" not in log


class TestLoadBoardIntegration:
    def test_board_tracks_shared_endpoint(self):
        board = LoadBoard()
        config = _two_pipeline_config()

        def producer_main(sim_comm, bridge):
            for step in range(2):
                bridge.execute(_adaptor({
                    "alpha": _table("alpha", 64, 1.0),
                    "beta": _table("beta", 64, 2.0),
                }, step))
            return True

        run_service(
            config, producer_main, _registry(), m=2, n=2,
            load_board=board,
        )
        # Everything drained: the ledger returns to zero everywhere.
        assert all(v == 0 for v in board.snapshot().values())


class TestEndpointIdleWait:
    def test_unread_chunks_for_an_unmigrated_flow_park_the_endpoint(self):
        """Chunks that race ahead of ``svc_migrate`` wait unread in the
        mailbox.  The endpoint must park on them — not spin its sweep
        loop — and resume when the control message lands.  Asserted
        from the wait table's own state, never from timing."""
        from repro.mpi import run_spmd
        from repro.mpi.waits import current_context
        from repro.service.plan import PipelineRegistry
        from repro.service.runtime import ServiceEndpoint
        from repro.transport.flows import CTRL_TAG
        from repro.transport.wire import encode_step

        config = _two_pipeline_config()
        data_tag, ack_tag = config.tags("alpha")
        chunks = encode_step(
            _table("alpha", 600, 1.0), 0, 0.0, "none", 1024, pipeline="alpha",
        )
        assert len(chunks) > 1
        # Everything rank 2 will ever be sent: the chunks, then the
        # migrate, the fin and the shutdown.
        arrivals = len(chunks) + 3
        sweeps = []

        def producer(comm):
            comm.split(color=0, key=comm.rank)
            table = current_context().table
            # alpha is sharded to endpoint 0 (rank 1); ship it to
            # endpoint 1 (rank 2) before telling it about the move.
            for chunk in chunks:
                comm.send(("chunk", chunk), 2, data_tag)
            # Rank 2 says so as it parks on the unread chunks; the baton
            # reaches this rank only once it has parked.
            assert comm.recv(2, CTRL_TAG, charge=False) == ("idle",)
            with table.lock:
                (entry,) = [
                    describe() for ctx, describe in table.parked.values()
                    if ctx.name == "rank 2"
                ]
            assert entry["waits_on"].startswith("idle(")
            assert entry["mailboxes"] == [
                {"source": 0, "tag": data_tag, "messages": len(chunks)},
            ]

            comm.send(("svc_migrate", 0, "alpha", (0,)), 2, CTRL_TAG,
                      charge=False)
            acked = set()
            while len(acked) < len(chunks):
                frame = comm.recv(2, ack_tag, charge=False)
                acked.update(frame[2])
            comm.send(("fin", 1), 2, data_tag)
            assert comm.recv(2, ack_tag, charge=False) == ("fin_ack",)
            for endpoint in (1, 2):
                comm.send(("svc_shutdown",), endpoint, CTRL_TAG, charge=False)
            return None

        def world_main(comm):
            if comm.rank == 0:
                return producer(comm)
            endpoint_comm = comm.split(color=1, key=comm.rank)
            endpoint = ServiceEndpoint(
                config, PipelineRegistry(_registry()), comm, endpoint_comm,
                1, 2,
            )
            if comm.rank == 2:
                poll, wait = endpoint._poll_flows, comm.wait_arrival

                def counted():
                    sweeps.append(None)
                    return poll()

                def idle(seen):
                    if seen == len(chunks):  # every chunk here, none read
                        comm.send(("idle",), 0, CTRL_TAG, charge=False)
                    return wait(seen)

                endpoint._poll_flows, comm.wait_arrival = counted, idle
            endpoint.serve()
            return endpoint.pipeline_steps

        out = run_spmd(3, world_main)
        assert out[1] == {"alpha": 0, "beta": 0}
        assert out[2] == {"alpha": 1, "beta": 0}
        # A few sweeps per arrival at most (one that finds it, one that
        # finds nothing more, one after a stale count) — a busy loop
        # would have swept thousands of times by now.
        assert len(sweeps) <= 4 * arrivals + 4


class TestAdmissionDecidedOnce:
    """One rank decides each admission round; every rank applies it."""

    M = 16

    def _run(self, monkeypatch, quota="on", steps=8):
        from repro.control.quota import QuotaGovernor
        from repro.mpi.comm import ThreadCommunicator
        from repro.mpi.waits import current_context
        from repro.service import router as router_module
        from repro.transport.flows import CTRL_TAG

        rounds, deciders, notices = [], [], []
        coordinate = router_module.coordination_round

        def spy_round(comm, fields, *decide):
            out = coordinate(comm, fields, *decide)
            folded = out[0] if decide else out
            if comm.rank == 0:
                rounds.append({k: v.tolist() for k, v in folded.items()})
            return out

        decide = QuotaGovernor.decide

        def spy_decide(gov, step, t=None):
            if current_context() is not None:  # not the test's replica
                deciders.append((step, current_context().name))
            return decide(gov, step, t)

        send = ThreadCommunicator.send

        def spy_send(comm, obj, dest, tag=0, charge=True):
            if tag == CTRL_TAG and obj[0] == "svc_migrate":
                notices.append((comm.rank, obj))
            return send(comm, obj, dest, tag, charge)

        monkeypatch.setattr(router_module, "coordination_round", spy_round)
        monkeypatch.setattr(QuotaGovernor, "decide", spy_decide)
        monkeypatch.setattr(ThreadCommunicator, "send", spy_send)

        def producer_main(sim_comm, bridge):
            states = []
            for step in range(steps):
                bridge.execute(_adaptor({
                    "a": _table("a", 64, 1.0),
                    "b": _table("b", 8, 2.0),
                    "c": _table("c", 4096, 3.0),
                }, step))
                q, s = bridge._quota_governor, bridge._shard_governor
                states.append((dict(q._alloc), q._round, s.gate._hold, s._round))
            return bridge.control_plane.decisions, states

        control = ControlConfig.from_xml_attrs(
            {"quota": quota, "interval": "2", "codec": "off"}
        )
        out, endpoints = run_service(
            TestAdmissionControl()._config(), producer_main,
            TestAdmissionControl()._registry(), m=self.M, n=2,
            control=control,
        )
        return out, endpoints, rounds, deciders, notices

    @staticmethod
    def _replica(config, rounds, steps=8):
        """Fresh governors fed the folded vectors, one step at a time."""
        from repro.control.quota import QuotaGovernor, ShardGovernor
        from repro.service.plan import ShardMap

        grants, moves = [], []
        quota = QuotaGovernor(
            {p.name: p.weight for p in config.pipelines}, config.budget,
            actuator=lambda *call: grants.append(call),
            min_credits=config.min_credits,
        )
        shard = ShardGovernor(
            2, actuator=lambda *call: moves.append(call),
            skew=config.skew, cooldown=config.cooldown,
        )
        shards = ShardMap.initial(config, 2)
        decisions, states, folded = [], [], iter(rounds)
        for step in range(steps):
            if step % 2 == 0:
                fields = next(folded)
                names = config.names
                demand = {n: int(v) for n, v in zip(names, fields["demand"])}
                active = {n: v > 0 for n, v in zip(names, fields["shipped"])}
                shard.observe(step, demand, shards.as_dict())
                decisions += shard.decide(step)
                for name, new in moves:
                    shards.set_shard(name, new)
                moves.clear()
                quota.observe(step, demand, active, shards.as_dict())
                decisions += quota.decide(step)
            states.append(
                (dict(quota._alloc), quota._round, shard.gate._hold, shard._round)
            )
        return decisions, states, grants

    def test_every_rank_equals_an_independent_replica(self, monkeypatch):
        out, _eps, rounds, _deciders, _notices = self._run(monkeypatch)
        assert len(rounds) == 4
        decisions, states, grants = self._replica(
            TestAdmissionControl()._config(), rounds
        )
        assert grants and any(d.governor == "shard" for d in decisions)
        untimed = lambda log: [
            {k: v for k, v in d.to_dict().items() if k != "time"} for d in log
        ]
        for log, rank_states in out:
            assert untimed(log) == untimed(decisions)
            assert rank_states == states
        # Every rank logged the very same stamps, too.
        assert len({tuple(d.time for d in log) for log, _s in out}) == 1

    def test_quota_decides_once_per_round(self, monkeypatch):
        out, _eps, rounds, deciders, _notices = self._run(monkeypatch)
        assert [step for step, _who in deciders] == [0, 2, 4, 6]
        assert len(rounds) == 4

    def test_migration_decided_off_rank_0_is_announced_by_rank_0(
        self, monkeypatch
    ):
        out, endpoints, _rounds, deciders, notices = self._run(monkeypatch)
        migrated = {
            d.step for log, _s in out for d in log
            if d.governor == "shard" and d.applied
        }
        assert migrated
        who = dict(deciders)
        assert all(who[step] != "rank 0" for step in migrated)
        assert notices and {rank for rank, _msg in notices} == {0}
        assert {msg[1] for _rank, msg in notices} == {s + 1 for s in migrated}
        assert all(ep.pipeline_steps["c"] > 0 for ep in endpoints)

