"""Nonblocking communication requests."""

from __future__ import annotations

import threading
from typing import Any, Callable

__all__ = ["Request"]


class Request:
    """Handle for a nonblocking send or receive.

    ``wait`` blocks until the operation completes and returns the
    received object (receives) or ``None`` (sends).  ``test`` polls.
    """

    def __init__(
        self,
        complete: Callable[[], Any],
        poll: Callable[[], tuple[bool, Any]],
    ):
        # ``complete()`` blocks until the operation is done and returns
        # its payload; ``poll()`` is its nonblocking ``(done, payload)``.
        self._complete = complete
        self._poll = poll
        self._done = False
        self._value: Any = None
        self._lock = threading.Lock()

    def wait(self) -> Any:
        """Block until complete; returns the payload (or None for sends)."""
        with self._lock:
            if not self._done:
                self._value = self._complete()
                self._done = True
            return self._value

    def test(self) -> tuple[bool, Any]:
        """Nonblocking completion check: ``(done, payload_or_None)``."""
        with self._lock:
            if not self._done:
                self._done, self._value = self._poll()
            return self._done, self._value

    @property
    def done(self) -> bool:
        with self._lock:
            return self._done

    @staticmethod
    def completed(value: Any = None) -> "Request":
        """An already-finished request (used by eager sends)."""
        r = Request(lambda: value, lambda: (True, value))
        r.wait()
        return r
