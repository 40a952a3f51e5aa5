"""Tests for the simulated MPI layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DeadlockError, MPIError, RankMismatchError
from repro.hamr.runtime import current_clock
from repro.mpi.comm import (
    CommCostModel,
    Communicator,
    SelfCommunicator,
    run_spmd,
)


class TestRunSpmd:
    def test_gathers_return_values(self):
        out = run_spmd(4, lambda comm: comm.rank * 10)
        assert out == [0, 10, 20, 30]

    def test_size_one_uses_self_comm(self):
        out = run_spmd(1, lambda comm: (comm.rank, comm.size))
        assert out == [(0, 1)]

    def test_invalid_size(self):
        with pytest.raises(MPIError):
            run_spmd(0, lambda comm: None)

    def test_exception_propagates_with_rank(self):
        def bad(comm):
            if comm.rank == 2:
                raise ValueError("boom")
            comm.barrier()

        with pytest.raises(MPIError, match=r"rank 2 failed: ValueError\('boom'\)"):
            run_spmd(4, bad)

    def test_fresh_clock_per_rank(self):
        times = run_spmd(3, lambda comm: current_clock().now, start_time=5.0)
        assert all(t >= 5.0 for t in times)


class TestPointToPoint:
    def test_send_recv_object(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send({"a": 7, "b": 3.14}, dest=1, tag=11)
                return None
            return comm.recv(source=0, tag=11)

        out = run_spmd(2, fn)
        assert out[1] == {"a": 7, "b": 3.14}

    def test_tags_demultiplex(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("tag5", dest=1, tag=5)
                comm.send("tag7", dest=1, tag=7)
                return None
            second = comm.recv(source=0, tag=7)
            first = comm.recv(source=0, tag=5)
            return (first, second)

        out = run_spmd(2, fn)
        assert out[1] == ("tag5", "tag7")

    def test_self_message_rejected(self):
        def fn(comm):
            comm.send(1, dest=comm.rank)

        with pytest.raises(MPIError, match="self-messaging is not supported"):
            run_spmd(2, fn)

    def test_recv_charges_simulated_time(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(np.zeros(1000), dest=1)
                return None
            comm.recv(source=0)
            return current_clock().now

        out = run_spmd(2, fn)
        assert out[1] > 0.0

    def test_message_cannot_arrive_before_it_was_sent(self):
        """Simulated-time causality: recv completion >= send time."""
        def fn(comm):
            if comm.rank == 0:
                current_clock().advance(5.0)  # sender is far in the future
                comm.send("late", dest=1)
                return None
            comm.recv(source=0)
            return current_clock().now

        out = run_spmd(2, fn)
        assert out[1] > 5.0  # receiver clock pulled past the send time


class TestCollectives:
    def test_gather(self):
        def fn(comm):
            return comm.gather((comm.rank + 1) ** 2, root=0)

        out = run_spmd(4, fn)
        assert out[0] == [1, 4, 9, 16]
        assert out[1] is None

    def test_allgather(self):
        out = run_spmd(3, lambda comm: comm.allgather(comm.rank))
        assert out == [[0, 1, 2]] * 3

    def test_alltoall(self):
        def fn(comm):
            return comm.alltoall([f"{comm.rank}->{d}" for d in range(comm.size)])

        out = run_spmd(3, fn)
        assert out[1] == ["0->1", "1->1", "2->1"]

    def test_reduce_sum(self):
        out = run_spmd(4, lambda comm: comm.reduce(comm.rank + 1, op="sum", root=0))
        assert out[0] == 10
        assert out[1:] == [None] * 3

    def test_allreduce_ops(self):
        def fn(comm):
            v = comm.rank + 1
            return (
                comm.allreduce(v, "sum"),
                comm.allreduce(v, "min"),
                comm.allreduce(v, "max"),
                comm.allreduce(v, "prod"),
            )

        out = run_spmd(3, fn)
        assert out == [(6, 1, 3, 6)] * 3

    def test_allreduce_numpy(self):
        def fn(comm):
            return comm.Allreduce(np.full(4, float(comm.rank)), op="sum")

        out = run_spmd(4, fn)
        np.testing.assert_array_equal(out[0], [6.0] * 4)

    def test_allreduce_does_not_mutate_input(self):
        def fn(comm):
            mine = np.full(2, float(comm.rank))
            comm.Allreduce(mine, op="sum")
            return mine

        out = run_spmd(3, fn)
        np.testing.assert_array_equal(out[1], [1.0, 1.0])

    def test_unknown_reduction(self):
        with pytest.raises(MPIError, match="unknown reduction 'xor'"):
            run_spmd(2, lambda comm: comm.allreduce(1, op="xor"))

    def test_invalid_root(self):
        with pytest.raises(MPIError) as excinfo:
            run_spmd(2, lambda comm: comm.gather(1, root=5))
        assert isinstance(excinfo.value.__cause__, RankMismatchError)
        assert "root 5 out of range" in str(excinfo.value)

    def test_barrier_aligns_clocks(self):
        def fn(comm):
            current_clock().advance(0.1 * (comm.rank + 1))
            comm.barrier()
            return current_clock().now

        out = run_spmd(3, fn)
        assert max(out) - min(out) < 1e-12
        assert out[0] >= 0.3  # aligned to the slowest rank

    def test_collectives_cost_scales_with_size(self):
        cost = CommCostModel()
        assert cost.collective(1000, 16) > cost.collective(1000, 2)


class TestRecvFallback:
    def test_blocking_recv_fallback_raises_structured_mpierror(self):
        """A blocking recv that can never complete reports structured details."""

        def fn(comm):
            if comm.rank == 1:
                try:
                    comm.recv(source=0, tag=9)  # rank 0 never sends
                except DeadlockError as exc:
                    return exc.details
            return None

        details = run_spmd(2, fn)[1]
        assert details == {
            "cause": "deadlock",
            "parked": [{
                "context": "rank 1",
                "waits_on": "recv(source=0 (rank 0, finished), tag=9) on world",
                "mailboxes": [],
            }],
            "finished": ["rank 0"],
        }

    def test_uncharged_recv_does_not_advance_clock(self):
        """charge=False marks control-plane traffic off the simulated clock."""

        def fn(comm):
            if comm.rank == 0:
                comm.send("ctl", dest=1, tag=3, charge=False)
                return None
            t0 = current_clock().now
            msg = comm.recv(source=0, tag=3, charge=False)
            return (msg, current_clock().now - t0)

        msg, elapsed = run_spmd(2, fn)[1]
        assert msg == "ctl"
        assert elapsed == 0.0

    def test_wire_nbytes_hook_sizes_payload(self):
        """Objects exposing wire_nbytes are charged their wire footprint."""
        from repro.mpi.comm import _payload_bytes

        class Framed:
            wire_nbytes = 4096

        assert _payload_bytes(Framed()) == 4096
        assert _payload_bytes(("chunk", Framed())) == 4096 + len("chunk")


class TestSelfCommunicator:
    def test_trivial_collectives(self):
        c = SelfCommunicator()
        assert c.gather("x") == ["x"]
        assert c.allgather("x") == ["x"]
        assert c.alltoall(["a"]) == ["a"]
        assert c.allreduce(5) == 5
        assert c.reduce(5) == 5
        c.barrier()

    def test_p2p_rejected(self):
        c = SelfCommunicator()
        with pytest.raises(MPIError):
            c.send(1, dest=0)
        with pytest.raises(MPIError):
            c.recv(source=0)

class TestCoordinatedAllreduce:
    """The epoch-checked allreduce the cluster governor rounds run on."""

    def test_elementwise_sum(self):
        def fn(comm):
            vec = np.arange(4, dtype=float) + comm.rank
            return comm.coordinated_allreduce(vec, op="sum")

        out = run_spmd(3, fn)
        expect = 3 * np.arange(4, dtype=float) + 3  # ranks contribute 0,1,2
        for got in out:
            np.testing.assert_allclose(got, expect)

    def test_epoch_advances_per_round(self):
        def fn(comm):
            assert comm.coordination_epoch == 0
            comm.coordinated_allreduce(np.ones(2))
            comm.coordinated_allreduce(np.ones(2))
            return comm.coordination_epoch

        assert run_spmd(2, fn) == [2, 2]

    def test_self_communicator_round_trips(self):
        c = SelfCommunicator()
        np.testing.assert_allclose(
            c.coordinated_allreduce(np.array([1.0, 2.0])), [1.0, 2.0]
        )
        assert c.coordination_epoch == 1

    def test_epoch_skew_raises_instead_of_hanging(self):
        def fn(comm):
            if comm.rank == 1:
                # Simulate a rank that missed a round (cadence mismatch).
                comm._coordination_epoch += 1
            with pytest.raises(MPIError, match="round skew") as excinfo:
                comm.coordinated_allreduce(np.ones(3))
            return sorted(excinfo.value.details["epochs"])

        assert run_spmd(2, fn) == [[1, 2], [1, 2]]

    @pytest.mark.parametrize("lengths", [(1, 3), (2, 3)])
    def test_shape_skew_raises_instead_of_broadcasting(self, lengths):
        """numpy would broadcast (1,)+(3,) silently and choke on (2,)+(3,)."""

        def fn(comm):
            with pytest.raises(MPIError, match="layout skew") as excinfo:
                comm.coordinated_allreduce(np.ones(lengths[comm.rank]))
            details = excinfo.value.details
            return details["rank"], details["epoch"], details["shapes"]

        shapes = [(lengths[0],), (lengths[1],)]
        assert run_spmd(2, fn) == [(0, 1, shapes), (1, 1, shapes)]


class TestFoldOnce:
    """A reduction's board is folded once for the group, not per rank."""

    @pytest.mark.parametrize("size", [8, 64])
    def test_reducer_runs_once_per_round(self, size, monkeypatch):
        from repro.mpi import comm as comm_module

        calls = []

        def spy(a, b):
            calls.append(None)
            return a + b

        monkeypatch.setitem(comm_module._REDUCTIONS, "sum", spy)

        def fn(comm):
            comm.allreduce(np.ones(4))
            comm.reduce(1.0, op="sum", root=1)
            comm.coordinated_allreduce(np.ones(2))

        run_spmd(size, fn)
        # Three rounds of size - 1 binary ops each; P folds would be P x.
        assert len(calls) == 3 * (size - 1)

    def test_each_rank_gets_its_own_result(self):
        def fn(comm):
            plain = comm.allreduce(np.full(3, float(comm.rank)))
            checked = comm.coordinated_allreduce(np.full(3, float(comm.rank)))
            if comm.rank == 0:
                plain[:] = -1.0
                checked[:] = -1.0
            comm.barrier()
            return plain, checked

        for rank, (plain, checked) in enumerate(run_spmd(4, fn)):
            want = -1.0 if rank == 0 else 6.0
            np.testing.assert_array_equal(plain, [want] * 3)
            np.testing.assert_array_equal(checked, [want] * 3)

    @pytest.mark.parametrize("op", ["sum", "prod", "min", "max"])
    def test_results_equal_a_left_to_right_fold(self, op):
        rng = np.random.default_rng(3)
        vectors = [rng.normal(size=5) * 10.0 ** rng.integers(-8, 8, 5)
                   for _ in range(8)]
        scalars = [float(v[0]) for v in vectors]
        fn = Communicator._reducer(op)

        def fold(board):
            acc = board[0]
            for item in board[1:]:
                acc = fn(acc, item)
            return acc

        def main(comm):
            return (
                comm.allreduce(vectors[comm.rank], op=op),
                comm.allreduce(scalars[comm.rank], op=op),
                comm.reduce(vectors[comm.rank], op=op, root=3),
                comm.coordinated_allreduce(vectors[comm.rank], op=op),
            )

        out = run_spmd(8, main)
        for rank, (vec, scalar, reduced, checked) in enumerate(out):
            assert np.array_equal(vec, fold(vectors))
            assert scalar == fold(scalars)
            assert np.array_equal(checked, fold(vectors))
            if rank == 3:
                assert np.array_equal(reduced, fold(vectors))
            else:
                assert reduced is None

    def test_skews_raise_on_every_rank_with_its_rank(self):
        def epoch_skew(comm):
            if comm.rank == 5:
                comm._coordination_epoch += 1
            with pytest.raises(MPIError, match="round skew") as err:
                comm.coordinated_allreduce(np.ones(3))
            return err.value.details

        def layout_skew(comm):
            with pytest.raises(MPIError, match="layout skew") as err:
                comm.coordinated_allreduce(np.ones(2 + (comm.rank == 6)))
            return err.value.details

        for rank, details in enumerate(run_spmd(8, epoch_skew)):
            assert details["rank"] == rank
            assert details["epochs"] == [2 if r == 5 else 1 for r in range(8)]
        for rank, details in enumerate(run_spmd(8, layout_skew)):
            assert (details["rank"], details["epoch"]) == (rank, 1)
            assert details["shapes"] == [
                (3,) if r == 6 else (2,) for r in range(8)
            ]

    def test_decide_runs_once_on_the_aligned_clock(self):
        calls = []

        def decide(folded):
            calls.append(current_clock().now)
            return float(folded.sum())

        def fn(comm):
            current_clock().advance(0.01 * comm.rank)
            out = comm.coordinated_allreduce(np.ones(2), decide=decide)
            return out[1], current_clock().now

        out = run_spmd(8, fn)
        assert len(calls) == 1
        assert out == [(16.0, calls[0])] * 8
        # A single rank decides on its own contribution.
        folded, verdict = SelfCommunicator().coordinated_allreduce(
            np.ones(2), decide=decide
        )
        assert verdict == 2.0 and len(calls) == 2
