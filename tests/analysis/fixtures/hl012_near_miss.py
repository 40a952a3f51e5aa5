"""Fixture: HL012 near misses — waiting and timing the rule must allow."""

from repro.hamr.runtime import current_clock


def simulated_wait(latest: float, extra: float) -> float:
    """``wait_for`` on the *simulated* clock is how time should pass."""
    clock = current_clock()
    clock.wait_for(latest + extra)
    clock.advance(extra)
    return clock.now


def blocking_through_the_communicator(comm, runner, tag):
    found, frame = comm.try_recv(0, tag)
    if not found:
        frame = comm.recv(0, tag)
    runner.drain()
    return frame


def untimed_waits(done, mailbox, worker):
    done.wait()
    worker.join()
    return mailbox.get()


def not_a_wait(config, table):
    timeout = config.get("timeout", 5)
    return table.sender("halo", 1, timeout=timeout)
