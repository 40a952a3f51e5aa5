"""FlowGovernor: AIMD window control + chunk rungs, deterministically."""

from __future__ import annotations

import pytest

from repro.control.governors import FlowBounds, FlowGovernor


def make_gov(**kw):
    calls = {"window": [], "chunk": []}
    kw.setdefault("bounds", FlowBounds(
        min_credits=1, max_credits=16, min_chunk=1024, max_chunk=16384
    ))
    gov = FlowGovernor(
        window_actuator=calls["window"].append,
        chunk_actuator=calls["chunk"].append,
        credits=4,
        chunk_bytes=4096,
        **kw,
    )
    return gov, calls


class TestAdditiveIncrease:
    def test_grows_while_flat_and_saturated(self):
        gov, calls = make_gov()
        for step in range(3):
            gov.observe(step, ack_latency=1e-4, retries=0, chunks=10,
                        inflight_peak=gov.credits)
            gov.decide(step)
        # One credit per decision: 4 -> 5 -> 6 -> 7.
        assert calls["window"] == [5, 6, 7]

    def test_no_growth_without_saturation(self):
        gov, calls = make_gov()
        gov.observe(0, ack_latency=1e-4, retries=0, chunks=10,
                    inflight_peak=2)  # window never filled: no demand
        decisions = gov.decide(0)
        assert calls["window"] == []
        # (the chunk rung may still move; the window must not)
        assert gov.credits == 4
        assert all("window=4" in d.action for d in decisions)

    def test_latency_inflation_stops_growth(self):
        gov, calls = make_gov(latency_slack=1.5)
        gov.observe(0, ack_latency=1e-4, retries=0, chunks=10,
                    inflight_peak=4)
        gov.decide(0)  # establishes the floor, grows
        gov.observe(1, ack_latency=1e-3, retries=0, chunks=10,
                    inflight_peak=gov.credits)
        before = gov.credits
        gov.decide(1)  # EWMA now far above 1.5x floor: hold
        assert gov.credits == before

    def test_growth_respects_max_credits(self):
        gov, calls = make_gov()
        for step in range(40):
            gov.observe(step, ack_latency=1e-4, retries=0, chunks=10,
                        inflight_peak=gov.credits)
            gov.decide(step)
        assert gov.credits == gov.bounds.max_credits
        assert max(calls["window"]) == 16


class TestMultiplicativeDecrease:
    def test_retry_spike_halves_window_and_chunk(self):
        gov, calls = make_gov()
        gov.observe(0, ack_latency=1e-4, retries=5, chunks=10,
                    inflight_peak=4)
        (d,) = gov.decide(0)
        assert d.applied
        assert gov.credits == 2 and gov.chunk_bytes == 2048
        assert calls["window"] == [2] and calls["chunk"] == [2048]
        assert "multiplicative decrease" in d.reason

    def test_cooldown_holds_between_shrinks(self):
        gov, calls = make_gov(cooldown=3)
        for step in range(3):
            gov.observe(step, ack_latency=1e-4, retries=5, chunks=10,
                        inflight_peak=4)
            gov.decide(step)
        # Only the step-0 shrink fired; steps 1-2 were inside cooldown.
        assert calls["window"] == [2]
        gov.observe(3, ack_latency=1e-4, retries=5, chunks=10,
                    inflight_peak=4)
        gov.decide(3)
        assert calls["window"] == [2, 1]

    def test_shrink_respects_min_credits(self):
        gov, calls = make_gov(cooldown=0, bounds=FlowBounds(
            min_credits=2, max_credits=16, min_chunk=2048, max_chunk=16384
        ))
        for step in range(0, 20, 5):
            gov.observe(step, ack_latency=1e-4, retries=8, chunks=10,
                        inflight_peak=4)
            gov.decide(step)
        assert gov.credits == 2
        assert gov.chunk_bytes == 2048


class TestChunkRungs:
    def test_clean_link_climbs_power_of_two_rungs(self):
        gov, calls = make_gov()
        for step in range(5):
            gov.observe(step, ack_latency=1e-4, retries=0, chunks=10,
                        inflight_peak=0)
            gov.decide(step)
        assert calls["chunk"] == [8192, 16384]  # 4096 doubles to the cap
        assert gov.chunk_bytes == 16384

    def test_hysteresis_band_prevents_flapping(self):
        gov, calls = make_gov()
        # A retry rate inside the band (low=0.01 < r < high=0.10)
        # moves nothing in either direction.
        gov.observe(0, ack_latency=1e-4, retries=1, chunks=20,
                    inflight_peak=0)
        assert gov.decide(0) == []
        assert calls["chunk"] == [] and calls["window"] == []


class TestGovernorPlumbing:
    def test_no_decision_before_first_observation(self):
        gov, _ = make_gov()
        assert gov.decide(0) == []

    def test_decisions_deterministic_across_reruns(self):
        def run():
            gov, _ = make_gov()
            log = []
            schedule = [
                (0, 1e-4, 0, 10, 4), (1, 1e-4, 0, 10, 5),
                (2, 2e-4, 3, 10, 6), (3, 2e-4, 4, 10, 3),
                (4, 1e-4, 0, 10, 3), (5, 1e-4, 0, 10, 3),
            ]
            for step, ack, retries, chunks, peak in schedule:
                gov.observe(step, ack, retries, chunks, peak)
                for d in gov.decide(step):
                    log.append((d.step, d.action, d.reason, d.args))
            return log
        first, second = run(), run()
        assert first == second and first

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            FlowBounds(min_credits=0)
        with pytest.raises(ValueError):
            FlowBounds(min_credits=8, max_credits=4)
        with pytest.raises(ValueError):
            FlowBounds(min_chunk=8192, max_chunk=4096)
