"""Fixture: HL006 — bare except / silently swallowed StreamError."""

from repro.errors import StreamError


def bare(work):
    try:
        work()
    except:  # expect: HL006  # noqa: E722 (deliberate fixture)
        pass


def swallowed(work):
    try:
        work()
    except StreamError:  # expect: HL006
        pass


def swallowed_tuple(work):
    try:
        work()
    except (ValueError, StreamError):  # expect: HL006
        pass


def handled(work, log):
    try:
        work()
    except StreamError as exc:
        log(exc)


def other_errors_may_pass(work):
    try:
        work()
    except ValueError:
        pass


def suppressed(work):
    try:
        work()
    except:  # lint: disable=HL006
        pass
