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
