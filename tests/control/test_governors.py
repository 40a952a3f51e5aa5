"""Tests for the codec, execution-mode and pool governors: decisions
and actuation.  (Placement: ``test_cluster.py``; flow:
``test_flow_governor.py``.)"""

from __future__ import annotations

import pytest

from repro.control.governors import (
    CodecGovernor,
    ExecutionModeGovernor,
    PoolTrimGovernor,
)
from repro.hamr.pool import pool_for
from repro.hamr.runtime import current_clock
from repro.hw.node import get_node
from repro.sensei.execution import ExecutionMethod
from repro.units import KiB, MiB, gbs


class Recorder:
    def __init__(self):
        self.calls = []

    def __call__(self, *args):
        self.calls.append(args)


def feed_codec(gov, steps=4, payload=int(4 * MiB), bandwidth=gbs(0.05),
               sample=b"\x00" * 8192):
    """Feed ``steps`` uncompressed observations at a given link speed."""
    for step in range(steps):
        gov.observe(
            step,
            raw_bytes=payload,
            wire_bytes=payload,
            transfer_time=payload / bandwidth,
            sample=sample,
        )


class TestCodecGovernor:
    def test_silent_until_estimates_warm(self):
        gov = CodecGovernor()
        assert gov.decide(0) == []

    def test_slow_link_switches_to_compression(self):
        rec = Recorder()
        gov = CodecGovernor(actuator=rec, initial="none")
        feed_codec(gov, bandwidth=gbs(0.05))  # zeros compress ~1000x
        (d,) = gov.decide(4)
        assert d.action == "codec=zlib"
        assert d.applied
        assert rec.calls == [("zlib",)]
        assert gov.current == "zlib"
        assert d.args_dict["cost_best"] < d.args_dict["cost_current"]

    def test_fast_link_stays_uncompressed(self):
        """When the wire outruns the compressor, paying it is a loss."""
        rec = Recorder()
        gov = CodecGovernor(actuator=rec, initial="none")
        feed_codec(gov, bandwidth=gbs(100.0))
        assert gov.decide(4) == []
        assert rec.calls == []

    def test_margin_suppresses_marginal_switches(self):
        gov_tight = CodecGovernor(margin=1.0)
        gov_wide = CodecGovernor(margin=1e9)
        for g in (gov_tight, gov_wide):
            feed_codec(g, bandwidth=gbs(0.05))
        assert len(gov_tight.decide(4)) == 1
        assert gov_wide.decide(4) == []

    def test_probe_charges_the_simulated_clock(self):
        clk = current_clock()
        before = clk.now
        gov = CodecGovernor()
        gov.observe(0, raw_bytes=1024, wire_bytes=1024, transfer_time=0.01,
                    sample=b"\x01" * 4096)
        assert clk.now > before  # adaptivity is not free

class TestExecutionModeGovernor:
    def test_heavy_insitu_goes_asynchronous(self):
        rec = Recorder()
        gov = ExecutionModeGovernor(actuator=rec, low=0.05, high=0.15)
        gov.observe(0, sim_time=1.0, insitu_time=0.5, apparent_time=0.5,
                    copy_estimate=0.02)
        (d,) = gov.decide(0)
        assert d.action == "execution=asynchronous"
        assert rec.calls == [(ExecutionMethod.ASYNCHRONOUS,)]
        assert gov.mode is ExecutionMethod.ASYNCHRONOUS

    def test_light_insitu_returns_to_lockstep(self):
        gov = ExecutionModeGovernor(
            actuator=Recorder(), initial=ExecutionMethod.ASYNCHRONOUS,
            alpha=0.5,
        )
        for step in range(8):
            gov.observe(step, sim_time=1.0, insitu_time=0.001,
                        apparent_time=0.002)
        (d,) = gov.decide(8)
        assert d.action == "execution=lockstep"
        assert gov.mode is ExecutionMethod.LOCKSTEP

    def test_band_interior_keeps_current_mode(self):
        gov = ExecutionModeGovernor(low=0.05, high=0.15)
        gov.observe(0, sim_time=1.0, insitu_time=0.10, apparent_time=0.10,
                    copy_estimate=0.0)
        assert gov.decide(0) == []
        assert gov.mode is ExecutionMethod.LOCKSTEP

    def test_copy_cost_counts_against_async(self):
        """In situ work the copy eats cannot be hidden by async."""
        gov = ExecutionModeGovernor(low=0.05, high=0.15)
        # Half the step is in situ, but copying costs nearly as much.
        gov.observe(0, sim_time=1.0, insitu_time=0.5, apparent_time=0.5,
                    copy_estimate=0.45)
        assert gov.decide(0) == []
        assert gov.last_ratio == pytest.approx(0.05, abs=1e-9)

    def test_measured_copy_replaces_the_estimate(self):
        gov = ExecutionModeGovernor(initial=ExecutionMethod.ASYNCHRONOUS)
        # Async apparent time IS the copy; later estimates are ignored.
        gov.observe(0, sim_time=1.0, insitu_time=0.5, apparent_time=0.2)
        assert gov._copy_measured
        gov.observe(1, sim_time=1.0, insitu_time=0.5, apparent_time=0.2,
                    copy_estimate=99.0)
        assert gov._copy.value == pytest.approx(0.2)

class TestPoolTrimGovernor:
    def _pooled(self, nbytes):
        pool = pool_for(get_node().devices[0])
        pool.acquire(nbytes)
        pool.release(nbytes)
        return pool

    def test_trims_above_the_watermark(self):
        pool = self._pooled(int(4 * KiB))
        gov = PoolTrimGovernor(pool, int(1 * KiB))
        (d,) = gov.decide(0)
        assert d.applied
        assert pool.pooled_bytes <= int(1 * KiB)
        assert gov.trimmed_bytes == int(4 * KiB)
        assert d.args_dict["freed"] == int(4 * KiB)

    def test_below_watermark_is_quiet(self):
        pool = self._pooled(512)
        gov = PoolTrimGovernor(pool, int(1 * KiB))
        assert gov.decide(0) == []
        assert pool.pooled_bytes == 512

    def test_validation(self):
        with pytest.raises(ValueError):
            PoolTrimGovernor(self._pooled(64), -1)


class TestPoolGrowth:
    """The watermark is fixed: trim/refill churn never moves it."""

    WM = int(1 * KiB)

    def _pool(self):
        return pool_for(get_node().devices[0])

    def _churn(self, pool, nbytes=int(4 * KiB)):
        """One trim-then-refill cycle: the refill misses the pool."""
        pool.acquire(nbytes)
        pool.release(nbytes)

    def test_zero_watermark_logs_no_move_and_trims_every_round(self):
        pool = self._pool()
        self._churn(pool)
        gov = PoolTrimGovernor(pool, 0)
        actions = []
        for step in range(9):
            actions += [d.action for d in gov.decide(step)]
            self._churn(pool)
        assert actions == [f"trim {int(4 * KiB)} B"] * 9
        assert gov.watermark == 0 and gov.trimmed_bytes == 9 * int(4 * KiB)

    def test_non_adaptive_never_moves(self):
        pool = self._pool()
        self._churn(pool)
        gov = PoolTrimGovernor(pool, self.WM)
        for step in range(8):
            assert all("watermark" not in d.action for d in gov.decide(step))
            self._churn(pool)
        assert gov.watermark == self.WM


class TestDecisionRecord:
    def test_to_dict_round_trip(self):
        gov = ExecutionModeGovernor()
        gov.observe(0, sim_time=1.0, insitu_time=0.9, apparent_time=0.9,
                    copy_estimate=0.0)
        (d,) = gov.decide(3, t=12.5)
        out = d.to_dict()
        assert out["governor"] == "execution"
        assert out["step"] == 3
        assert out["time"] == 12.5
        assert out["applied"] is False  # no actuator attached
        assert out["args"]["previous"] == "lockstep"
