"""Tests for the shared offered-load board."""

from __future__ import annotations

from repro.service.load import LoadBoard


class TestLoadBoard:
    def test_add_and_read(self):
        board = LoadBoard()
        assert board.load(7) == 0
        board.add(7, 100, 0.0)
        board.add(7, 50, 1.0)
        board.add(8, 5, 0.0)
        assert board.load(7) == 150
        assert board.load(8) == 5

    def test_clamped_at_zero(self):
        board = LoadBoard()
        board.add(1, 10, 0.0)
        board.add(1, -99, 0.0)
        assert board.load(1) == 0

    def test_snapshot_sorted_copy(self):
        board = LoadBoard()
        board.add(5, 1, 0.0)
        board.add(2, 2, 0.0)
        snap = board.snapshot()
        assert list(snap) == [2, 5]
        snap[2] = 999
        assert board.load(2) == 2

    def test_a_frame_counts_from_its_send_until_its_ack(self):
        """A frame sent at t0 and ACKed at t1 counts toward the load
        exactly for t0 <= t < t1, whatever order the events arrive in."""
        board = LoadBoard()
        board.add(0, -3, 2.0)  # the ACK may be recorded first
        board.add(0, 3, 1.0)
        board.add(0, 4, 1.5)  # a second frame, never ACKed
        assert board.load(0, 0.999) == 0
        assert board.load(0, 1.0) == 3
        assert board.load(0, 1.5) == 7
        assert board.load(0, 1.999) == 7
        assert board.load(0, 2.0) == 4
        assert board.load(0) == 4
        assert board.snapshot() == {0: 4}
