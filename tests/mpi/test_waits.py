"""The wait table: blocking without a wall clock, deadlocks as reports.

No test here asserts (or waits on) a wall quantity: a wait that can
never end is detected from the table's own bookkeeping, so the failing
cases fail at once.
"""

from __future__ import annotations

import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DeadlockError, ExecutionError, MPIError
from repro.hamr.runtime import current_clock
from repro.mpi import run_spmd
from repro.mpi.waits import WaitTable, current_context, off_scheduler
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.data_adaptor import TableDataAdaptor
from repro.sensei.execution import AsyncRunner
from repro.sensei.intransit import InTransitLayout, run_in_transit
from repro.svtk.table import TableData
from repro.transport.config import TransportConfig
from repro.transport.wire import ZlibCodec
from repro.units import KiB


def _parked(details: dict) -> dict[str, str]:
    return {p["context"]: p["waits_on"] for p in details["parked"]}


class TestFailureModes:
    def test_rank_death_wakes_a_peer_blocked_in_recv(self):
        """The peer used to stay blocked until the 60 s fallback."""

        def fn(comm):
            if comm.rank == 0:
                raise ValueError("boom")
            return comm.recv(source=0)

        with pytest.raises(MPIError, match="rank 0 failed") as err:
            run_spmd(2, fn)
        assert isinstance(err.value.__cause__, ValueError)

    def test_the_original_failure_outranks_the_wakeups_even_as_an_mpierror(self):
        def fn(comm):
            if comm.rank == 2:
                raise MPIError("bad exchange", details={"rank": 2})
            comm.barrier()

        with pytest.raises(MPIError, match="rank 2 failed") as err:
            run_spmd(3, fn)
        assert err.value.__cause__.details == {"rank": 2}

    def test_woken_peers_see_who_raised(self):
        seen = {}

        def fn(comm):
            if comm.rank == 0:
                raise ValueError("boom")
            try:
                comm.recv(source=0)
            except DeadlockError as exc:
                seen.update(exc.details)
                raise

        with pytest.raises(MPIError, match="rank 0 failed"):
            run_spmd(2, fn)
        assert seen["cause"] == "rank 0 raised ValueError('boom')"

    def test_barrier_against_recv_is_one_report_naming_both(self):
        """Used to be a 60 s hang ending in two unrelated errors."""

        def fn(comm):
            if comm.rank == 0:
                comm.barrier()
            else:
                comm.recv(source=0, tag=9)

        with pytest.raises(DeadlockError) as err:
            run_spmd(2, fn)
        assert err.value.details["cause"] == "deadlock"
        assert err.value.details["finished"] == []
        assert _parked(err.value.details) == {
            "rank 0": "collective #0 (1/2 arrived) on world",
            "rank 1": "recv(source=0 (rank 0), tag=9) on world",
        }
        assert "rank 0 waits on collective #0" in str(err.value)

    def test_report_lists_the_unread_mailboxes_of_a_parked_rank(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=5)
                comm.send("b", dest=1, tag=5)
                return None
            return comm.recv(source=0, tag=6)  # wrong tag

        with pytest.raises(DeadlockError) as err:
            run_spmd(2, fn)
        (parked,) = err.value.details["parked"]
        assert parked["mailboxes"] == [{"source": 0, "tag": 5, "messages": 2}]

    def test_deadlock_across_a_split(self):
        """Two simulation ranks wait — one on the world, one on the
        split communicator — for an endpoint that has returned."""

        def fn(comm):
            sim = comm.split(color=int(comm.rank == 2), key=comm.rank)
            if comm.rank == 0:
                comm.recv(source=2, tag=4)
            elif comm.rank == 1:
                sim.barrier()

        with pytest.raises(DeadlockError) as err:
            run_spmd(3, fn)
        assert err.value.details["finished"] == ["rank 2"]
        assert _parked(err.value.details) == {
            "rank 0": "recv(source=2 (rank 2, finished), tag=4) on world",
            "rank 1": "collective #0 (1/2 arrived) on world.split(0)",
        }

    def test_deadlock_across_an_async_runner(self):
        """An asynchronous task's collective on the dup'd communicator
        that one rank never joins: the task and its joiner are named."""

        def fn(comm):
            task_comm = comm.dup()
            runner = AsyncRunner("insitu")
            if comm.rank == 0:
                runner.launch(lambda: task_comm.allreduce(1))
            runner.drain()

        with pytest.raises(DeadlockError) as err:
            run_spmd(2, fn)
        assert err.value.details["finished"] == ["rank 1"]
        assert _parked(err.value.details) == {
            "rank 0": "join(rank 0/insitu-worker)",
            "rank 0/insitu-worker":
                "collective #0 (1/2 arrived) on world.dup",
        }

    def test_async_task_collectives_still_complete(self):
        def fn(comm):
            task_comm = comm.dup()
            runner = AsyncRunner("insitu")
            out = []
            runner.launch(lambda: out.append(task_comm.allreduce(comm.rank + 1)))
            comm.barrier()  # the parent communicator stays usable meanwhile
            runner.drain()
            return out

        assert run_spmd(3, fn) == [[6]] * 3

    def test_async_task_failure_still_surfaces_on_drain(self):
        def fn(comm):
            runner = AsyncRunner("insitu")

            def task():
                raise ValueError("analysis broke")

            runner.launch(task)
            with pytest.raises(ExecutionError):
                runner.drain()
            return comm.allreduce(1)

        assert run_spmd(2, fn) == [2, 2]


class TestNonblocking:
    def test_try_recv_on_an_empty_mailbox_is_free(self):
        def fn(comm):
            if comm.rank == 0:
                return None
            t0 = current_clock().now
            return comm.try_recv(source=0, tag=3), current_clock().now - t0

        assert run_spmd(2, fn)[1] == ((False, None), 0.0)

    def test_try_recv_delivers_and_charges_like_recv(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(None, dest=1, tag=3)  # a None payload is a payload
                comm.barrier()
                return None
            comm.barrier()  # the message is in the mailbox by now
            t0 = current_clock().now
            return comm.try_recv(source=0, tag=3), current_clock().now > t0

        assert run_spmd(2, fn)[1] == ((True, None), True)

    def test_wait_arrival_counts_arrivals_not_mailboxes(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("x", dest=1, tag=1)
                comm.send("y", dest=1, tag=2)
                comm.barrier()
                comm.recv(source=1, tag=7)
                comm.send("z", dest=1, tag=3)
                return None
            comm.barrier()  # both messages sit unread from here on
            at_once = comm.wait_arrival(0), comm.wait_arrival(1)
            comm.send("go", dest=0, tag=7)
            # Unread mail is not news: only a third arrival ends this.
            return at_once, comm.wait_arrival(2)

        assert run_spmd(2, fn)[1] == ((2, 2), 3)


class TestBaton:
    """One context runs at a time, chosen by (simulated clock, spawn order)."""

    def test_the_baton_goes_by_clock_then_rank(self):
        log = []

        def fn(comm):
            if comm.rank == 0:
                comm.recv(source=3, tag=1)  # every other rank has parked
                for dest in (1, 2, 3):
                    comm.send(None, dest=dest)
                return
            current_clock().advance((1.0, 1.0, 0.5)[comm.rank - 1])
            if comm.rank == 3:
                comm.send(None, dest=0, tag=1, charge=False)
            comm.recv(source=0)
            log.append(comm.rank)

        run_spmd(4, fn)
        # Rank 3 parked at 0.5 s, ranks 1 and 2 tie at 1.0 s.
        assert log == [3, 1, 2]

    def test_asynchronous_tasks_come_after_the_ranks(self):
        log = []

        def fn(comm):
            if comm.rank == 1:
                log.append("rank 1")
                comm.send(None, dest=0)
                return
            runner = AsyncRunner("insitu")
            runner.launch(lambda: log.append("task"))
            comm.recv(source=1)
            log.append("rank 0")
            runner.drain()

        run_spmd(2, fn)
        # All three are ready at 0 s: ranks by id, then the task, which
        # runs once rank 0 parks in the drain.
        assert log == ["rank 1", "rank 0", "task"]

    def test_only_the_context_that_gets_the_baton_is_notified(self, monkeypatch):
        notified = []

        class Counted(threading.Condition):
            def notify(self, n=1):
                notified.append(n)
                super().notify(n)

        spawn = WaitTable.spawn

        def counted_spawn(self, *args):
            ctx = spawn(self, *args)
            ctx._wake = Counted(self.lock)
            return ctx

        monkeypatch.setattr(WaitTable, "spawn", counted_spawn)
        tables = []

        def fn(comm):
            tables.append(current_context().table)
            right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
            total = 0
            for step in range(5):
                comm.send(step, dest=right)
                total += comm.recv(source=left)
                total = comm.allreduce(total)
            return total

        run_spmd(8, fn)  # more ranks than cores
        (table,) = set(tables)
        assert table.handoffs > 0
        assert len(notified) == table.handoffs

    def test_producer_encode_and_endpoint_decode_overlap(self, monkeypatch):
        """The one place two contexts run at once: pure codec calls."""
        inside = {"compress": 0, "decompress": 0}
        overlaps = []
        lock = threading.Lock()

        def watched(kind):
            method = getattr(ZlibCodec, kind)

            def wrapper(self, *args):
                with lock:
                    inside[kind] += 1
                    if inside["compress"] and inside["decompress"]:
                        overlaps.append(kind)
                try:
                    return method(self, *args)
                finally:
                    with lock:
                        inside[kind] -= 1

            return wrapper

        for kind in inside:
            monkeypatch.setattr(ZlibCodec, kind, watched(kind))
        rng = np.random.default_rng(0)
        fields = [np.round(rng.normal(size=1 << 18) * 64) / 64 for _ in range(4)]

        def producer_main(sim_comm, bridge):
            for step, field in enumerate(fields):
                table = TableData("field")
                table.add_host_column("rho", field)
                adaptor = TableDataAdaptor({"field": table})
                adaptor.set_step(step, 0.0)
                bridge.execute(adaptor)

        run_in_transit(
            InTransitLayout(1, 1), producer_main, lambda: [Sink("field")],
            mesh_name="field",
            transport=TransportConfig(compression="zlib", chunk_bytes=64 * KiB),
        )
        assert overlaps

    def test_deadlock_names_everyone_while_a_context_was_away(self):
        """Ranks 1 and 2 park while rank 0 is inside a codec call: not
        a deadlock yet.  Rank 0 comes back and parks: now it is, and
        the report names all three."""

        def fn(comm):
            if comm.rank == 0:
                current_clock().advance(1.0)  # the others go first
                with off_scheduler():
                    zlib.compress(bytes(1 << 24))
                comm.recv(source=1, tag=9)
            else:
                comm.recv(source=0, tag=comm.rank)

        with pytest.raises(DeadlockError) as err:
            run_spmd(3, fn)
        assert err.value.details["cause"] == "deadlock"
        assert _parked(err.value.details) == {
            "rank 0": "recv(source=1 (rank 1), tag=9) on world",
            "rank 1": "recv(source=0 (rank 0), tag=1) on world",
            "rank 2": "recv(source=0 (rank 0), tag=2) on world",
        }


    def test_no_pin_repeats_a_threads_current_mask(self, monkeypatch):
        """Every pass used to re-pin each context away from the baton's
        CPU, though it was already there."""
        from repro.mpi import waits

        masks: dict[int, frozenset] = {}
        repeats = []

        def spy(cpus, tid=0):
            tid = tid or threading.get_native_id()
            if masks.get(tid) == cpus:
                repeats.append((tid, sorted(cpus)))
            masks[tid] = cpus

        monkeypatch.setattr(waits, "_pin", spy)

        def fn(comm):
            if comm.rank == 0:
                current_clock().advance(1.0)  # the others run meanwhile
                with off_scheduler():
                    zlib.compress(bytes(1 << 24))
                return None
            peer = 3 - comm.rank
            for step in range(20):
                comm.send(step, dest=peer)
                comm.recv(source=peer)
            return None

        run_spmd(3, fn)
        assert masks
        assert repeats == []

    @pytest.fixture
    def pins(self, monkeypatch):
        """Record every pin as ``(tid, mask)``, with three distinct
        masks standing in for the home, away and all CPUs so the
        moves show however many CPUs this machine has."""
        from repro.mpi import waits

        monkeypatch.setattr(waits, "_HOME_CPU", frozenset({0}))
        monkeypatch.setattr(waits, "_AWAY_CPUS", frozenset({1}))
        monkeypatch.setattr(waits, "_ALL_CPUS", frozenset({0, 1}))
        pins: list[tuple[int, frozenset]] = []
        monkeypatch.setattr(
            waits, "_pin",
            lambda cpus, tid=0: pins.append(
                (tid or threading.get_native_id(), cpus)
            ),
        )
        return pins

    def test_only_an_away_call_pins_or_joins_the_away_set(self, pins):
        """Rank 0 comes second, so rank 1 holds the baton during the
        call: rank 0 joins the away set and moves to the away CPUs."""
        seen = {}

        def fn(comm):
            if comm.rank == 1:
                return
            ctx = current_context()
            current_clock().advance(1.0)
            before = len(pins)
            with off_scheduler():
                seen["in_away"] = ctx in ctx.table._away
                seen["pins"] = [m for t, m in pins[before:] if t == ctx.tid]

        run_spmd(2, fn)
        assert seen["in_away"] is True
        # A second pin (to all CPUs) follows once rank 1 is done.
        assert seen["pins"][:1] == [frozenset({1})]


class Sink(AnalysisAdaptor):
    def acquire(self, data, deep):
        return None

    def process(self, payload, comm, device_id):
        pass


# -- property: small random scripts against a sequential reference -------------

_COLLECTIVES = ("allreduce", "allgather", "barrier")


@st.composite
def scripts(draw):
    """Per-rank programs cut from one global, matched event sequence."""
    size = draw(st.integers(2, 4))
    programs: list[list[tuple]] = [[] for _ in range(size)]
    for i in range(draw(st.integers(0, 10))):
        if draw(st.booleans()):
            src = draw(st.integers(0, size - 1))
            dst = draw(st.integers(0, size - 2))
            dst += dst >= src
            tag = draw(st.integers(0, 2))
            programs[src].append(("send", dst, tag, i))
            programs[dst].append(("recv", src, tag))
        else:
            kind = draw(st.sampled_from(_COLLECTIVES))
            for program in programs:
                program.append((kind, i))
    return size, programs


def _collective_result(kind: str, values: list[int]):
    return {
        "allreduce": sum(values),
        "allgather": list(values),
        "barrier": None,
    }[kind]


def reference(size: int, programs):
    """Run the programs one rank at a time; returns what each rank
    collected and, for the ranks that can never finish, what blocks them."""
    pc = [0] * size
    out: list[list] = [[] for _ in range(size)]
    boxes: dict[tuple, list] = {}
    rounds: dict[int, dict[int, tuple]] = {}
    joined = [0] * size  # collectives each rank has entered
    inside = [False] * size
    progress = True
    while progress:
        progress = False
        for rank in range(size):
            while pc[rank] < len(programs[rank]):
                op = programs[rank][pc[rank]]
                if op[0] == "send":
                    _, dst, tag, value = op
                    boxes.setdefault((dst, rank, tag), []).append(value)
                elif op[0] == "recv":
                    box = boxes.get((rank, op[1], op[2]))
                    if not box:
                        break
                    out[rank].append(box.pop(0))
                else:
                    if not inside[rank]:
                        inside[rank] = True
                        rounds.setdefault(joined[rank], {})[rank] = op
                    arrived = rounds[joined[rank]]
                    if len(arrived) < size:
                        break
                    values = [arrived[r][1] + r for r in range(size)]
                    out[rank].append(_collective_result(op[0], values))
                    inside[rank] = False
                    joined[rank] += 1
                pc[rank] += 1
                progress = True
    blocked = {}
    for rank in range(size):
        if pc[rank] < len(programs[rank]):
            op = programs[rank][pc[rank]]
            blocked[f"rank {rank}"] = (
                f"recv(source={op[1]} " if op[0] == "recv"
                else f"collective #{joined[rank]} "
            ), (f"tag={op[2]})" if op[0] == "recv" else "arrived)")
    return out, blocked


def execute(size: int, programs):
    def fn(comm):
        out = []
        for op in programs[comm.rank]:
            if op[0] == "send":
                comm.send(op[3], dest=op[1], tag=op[2])
            elif op[0] == "recv":
                out.append(comm.recv(source=op[1], tag=op[2]))
            elif op[0] == "barrier":
                out.append(comm.barrier())
            else:
                out.append(getattr(comm, op[0])(op[1] + comm.rank))
        return out

    return run_spmd(size, fn)


class TestScriptsAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(script=scripts())
    def test_matched_scripts_compute_what_the_reference_computes(self, script):
        size, programs = script
        expected, blocked = reference(size, programs)
        assert not blocked
        assert execute(size, programs) == expected

    @settings(max_examples=60, deadline=None)
    @given(script=scripts(), data=st.data())
    def test_one_unmatched_recv_or_missing_participant_is_named(self, script, data):
        size, programs = script
        victim = data.draw(st.integers(0, size - 1))
        program = programs[victim]
        collectives = [
            i for i, op in enumerate(program) if op[0] in _COLLECTIVES
        ]
        if collectives and data.draw(st.booleans()):
            # Its last collective: every other kind stays aligned.
            del program[collectives[-1]]
        else:
            source = (victim + 1) % size
            at = data.draw(st.integers(0, len(program)))
            program.insert(at, ("recv", source, 99))
        _values, blocked = reference(size, programs)
        assert blocked
        with pytest.raises(DeadlockError) as err:
            execute(size, programs)
        details = err.value.details
        parked = _parked(details)
        assert sorted(parked) == sorted(blocked)
        for name, (head, tail) in blocked.items():
            assert parked[name].startswith(head), (parked, blocked)
            assert tail in parked[name], (parked, blocked)
        assert sorted(details["finished"]) == sorted(
            f"rank {r}" for r in range(size) if f"rank {r}" not in blocked
        )
