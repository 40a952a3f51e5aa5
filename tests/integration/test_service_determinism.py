"""Acceptance: a fault-injected multi-pipeline service run with
admission control on (quota + shard governors) produces bit-identical
decision logs across two seeded runs.

The service carries three tenants over two shared endpoints on a slow,
lossy link (seeded drop/duplicate/reorder faults): ``alpha`` publishes
every step, ``beta`` joins late, and ``gamma`` — the heavy tenant — is
finned early, after its demand has already skewed one endpoint hard
enough to trigger a shard migration.  Elastic membership must not
stall the siblings, and the *entire* decision log — quota grants,
migrations, steps, actions, reasons, structured args — must reproduce
exactly, on every producer rank, across reruns.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.control.plan import ControlConfig
from repro.mpi.comm import CommCostModel
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.data_adaptor import TableDataAdaptor
from repro.service import PipelineSpec, ServiceConfig, run_service
from repro.svtk.table import TableData
from repro.trace.harness import canonical_decisions, fresh_substrate
from repro.transport.config import TransportConfig
from repro.transport.retry import RetryPolicy
from repro.units import gbs, us

M, N = 2, 2  # 4 world ranks
STEPS = 6
JOIN_STEP = 2  # beta publishes from here on
FIN_STEP = 3   # gamma has finned before this step

TRANSPORT = TransportConfig(
    compression="none",
    chunk_bytes=1024,
    retry=RetryPolicy(max_retries=40),
).with_faults(drop=0.10, duplicate=0.05, reorder=0.10, seed=41)

CONFIG = ServiceConfig(
    pipelines=(
        PipelineSpec(name="alpha", weight=2.0, transport=TRANSPORT),
        PipelineSpec(name="beta", transport=TRANSPORT),
        PipelineSpec(name="gamma", transport=TRANSPORT),
    ),
    budget=16,
    skew=1.3,
    cooldown=1,
    interval=2,
)
# Only the admission-control governor: the codec governor's choices
# depend on how well each rank's column *contents* compress, which is
# legitimately rank-divergent and would defeat the replicated-log check.
CONTROL = ControlConfig.from_xml_attrs(
    {"execution": "off", "codec": "off", "placement": "off",
     "pool": "off", "flow": "off", "quota": "on", "interval": "2"},
)
SLOW_FABRIC = CommCostModel(latency=us(5.0), bandwidth=gbs(0.5))

#: gamma is the heavy tenant whose demand skews its endpoint; beta —
#: its endpoint-mate — is heavy enough that migrating gamma off their
#: shared endpoint is a genuine improvement (the shard governor's
#: guard refuses moves that merely swap which endpoint is hot).
ROWS = {"alpha": 64, "beta": 2048, "gamma": 4096}


class Sink(AnalysisAdaptor):
    def __init__(self, mesh: str):
        super().__init__(f"sink-{mesh}")
        self.set_device_id(-1)

    def acquire(self, data, deep):
        return None

    def process(self, payload, comm, device_id):
        pass


def _registry():
    return {name: (lambda mesh=name: [Sink(mesh)]) for name in ROWS}


def _table(mesh: str, rank: int) -> TableData:
    t = TableData(mesh)
    t.add_host_column("x", np.full(ROWS[mesh], float(rank)))
    return t


def producer_main(sim_comm, bridge):
    for step in range(STEPS):
        meshes = {"alpha": _table("alpha", sim_comm.rank)}
        if step >= JOIN_STEP:
            meshes["beta"] = _table("beta", sim_comm.rank)
        if step < FIN_STEP:
            meshes["gamma"] = _table("gamma", sim_comm.rank)
        adaptor = TableDataAdaptor(meshes)
        adaptor.set_step(step, 0.1 * step)
        bridge.execute(adaptor)
        if step == FIN_STEP - 1:
            bridge.finish_pipeline("gamma")
    plane = bridge.control_plane
    drops = sum(
        bridge.pipeline_metrics(name)["drops_recovered"] for name in ROWS
    )
    return [d.to_dict() for d in plane.decisions], drops


def run_once():
    # Two runs share the process: the shared harness scrubs the
    # substrate state the way the per-test fixture does, so the second
    # run starts cold.  Decision logs are compared in the trace plane's
    # canonical form (clock stamp dropped, measured floats normalized
    # to 9 significant digits) via ``canonical_decisions``.
    fresh_substrate("service-determinism")
    producers, endpoints = run_service(
        CONFIG, producer_main, _registry(), m=M, n=N,
        cost=SLOW_FABRIC, control=CONTROL,
    )
    steps = {
        name: sum(ep.pipeline_steps[name] for ep in endpoints)
        for name in ROWS
    }
    return producers, steps


REPO_ROOT = Path(__file__).resolve().parents[2]


def log_under_hash_seed(seed: int) -> str:
    """The first producer's decision log, as JSON, from a fresh
    interpreter whose ``str`` hashes are salted with ``seed``."""
    code = (
        "import json\n"
        "from tests.integration.test_service_determinism import run_once\n"
        "producers, _ = run_once()\n"
        "print(json.dumps(producers[0][0], sort_keys=True))\n"
    )
    env = dict(
        os.environ,
        PYTHONHASHSEED=str(seed),
        PYTHONPATH=os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)]),
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO_ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestServiceDeterminism:
    def test_elastic_tenants_do_not_stall_siblings(self):
        producers, steps = run_once()
        # Early fin and late join both merged cleanly on the shared
        # endpoints: every published step of every tenant arrived.
        assert steps == {
            "alpha": STEPS,
            "beta": STEPS - JOIN_STEP,
            "gamma": FIN_STEP,
        }
        # The link was genuinely lossy: recovered drops on every rank.
        assert all(drops > 0 for _log, drops in producers)
        # Admission control steered: quota rounds ran, and gamma's
        # demand spike pushed a shard migration before its fin.
        logs = [log for log, _drops in producers]
        governors = {d["governor"] for log in logs for d in log}
        assert {"quota", "shard"} <= governors
        migrations = [
            d for d in logs[0]
            if d["governor"] == "shard" and d["applied"]
        ]
        assert migrations and migrations[0]["args"]["pipeline"] == "gamma"

    def test_decision_logs_identical_across_seeded_runs(self):
        """Same seeds, same decisions — on every rank, in order.

        Decision content and timestamps reproduce bit-identically: the
        wait table runs producers and endpoints in (simulated clock,
        rank) order, not in real-thread arrival order.
        """
        first, first_steps = run_once()
        second, second_steps = run_once()
        assert first_steps == second_steps
        logs_a = [log for log, _ in first]
        logs_b = [log for log, _ in second]
        # Replicated admission state: every rank walked the same log.
        canon_a = [canonical_decisions(log) for log in logs_a]
        assert canon_a[0] == canon_a[1]
        assert canon_a == [canonical_decisions(log) for log in logs_b]
        for la, lb in zip(logs_a, logs_b):
            assert [d["time"] for d in la] == [d["time"] for d in lb]

    def test_decision_logs_do_not_depend_on_the_hash_seed(self):
        """Two interpreters, two ``PYTHONHASHSEED`` values, one log.

        Both runs above share one process, so a governor that walks a
        ``set`` of pipeline names, whose order follows the per-process
        string hash, repeats itself there and passes.  Only a second
        interpreter with another hash seed shows the difference.
        """
        first, second = (log_under_hash_seed(seed) for seed in (0, 1))
        assert json.loads(first), "no decisions were logged"
        assert first == second
