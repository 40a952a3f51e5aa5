"""The one owner of message tags and reliable-flow construction.

Every integer tag the data path puts on a communicator is defined
below, as a pure function of *(plane, declared name or index)* — never
of which thread asked first (DESIGN.md §5 has the tag map as one
table).

A :class:`FlowTable` is one rank's set of reliable flows under one
``(plane, name)``: it builds :class:`~repro.transport.channel.ReliableSender`
/ ``ReliableReceiver`` pairs on demand, caches them by ``(flow, peer)``,
gives each flow one timeline on the node's ledger, drains and sums them
in sorted key order, and *claims* its tags on the
communicator while open — a second table whose tags overlap (the same
name reused, or two names hashing to one array slot) is a structured
:class:`~repro.errors.ConfigError` at open time instead of two flows
silently reading each other's frames.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Mapping

from repro.errors import ConfigError
from repro.transport.metrics import new_transport_timeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.clock import Timeline
    from repro.transport.channel import ReliableReceiver, ReliableSender

__all__ = [
    "CTRL_TAG",
    "DATA_TAG",
    "ACK_TAG",
    "ARRAY_TAG_BASE",
    "pipeline_tags",
    "array_tags",
    "FlowTable",
]

#: Service-plane control messages (membership updates, shutdown) flow
#: from producer world rank 0 to every endpoint on this tag, outside
#: the data/ack tag space and uncharged (control plane is free).
CTRL_TAG = 91

#: The classic in-transit pair — pipeline index 0 of the service plane.
DATA_TAG = 100
ACK_TAG = 101

#: Tag stride per pipeline (sorted-name index ``k`` gets ``100 + 4k`` /
#: ``101 + 4k``): data/ack pairs with room to grow.
_PIPELINE_STRIDE = 4

#: The array plane's range: one four-tag slot per exchanger name, the
#: slot being the CRC32 of the name modulo the slot count.
ARRAY_TAG_BASE = 70000
_ARRAY_SLOTS = 4096
_ARRAY_STRIDE = 4


def pipeline_tags(index: int) -> tuple[int, int]:
    """The (data, ack) tag pair for the ``index``-th pipeline."""
    data_tag = DATA_TAG + _PIPELINE_STRIDE * index
    if index < 0 or data_tag >= ARRAY_TAG_BASE:
        raise ConfigError(
            f"pipeline index {index} outside the service plane's tag range"
        )
    return data_tag, ACK_TAG + _PIPELINE_STRIDE * index


def array_tags(name: str) -> dict[str, tuple[int, int]]:
    """``{"halo": (data, ack), "move": (data, ack)}`` for one exchanger.

    Ghost updates and shard handoffs ride separate pairs so a
    repartition in flight can never be confused with a halo refresh.
    """
    slot = zlib.crc32(str(name).encode("utf-8")) % _ARRAY_SLOTS
    base = ARRAY_TAG_BASE + _ARRAY_STRIDE * slot
    return {"halo": (base, base + 1), "move": (base + 2, base + 3)}


class FlowTable:
    """One rank's reliable flows under one ``(plane, name)``.

    ``tags`` maps each flow this table may open to its (data, ack)
    pair — the table claims all of them on ``comm`` until
    :meth:`release`.  ``senders`` / ``receivers`` are the live caches,
    keyed ``(flow, peer rank)``; ``timelines`` holds one transport
    timeline per flow opened here, named by plane, flow and rank.
    """

    def __init__(
        self,
        comm,
        plane: str,
        name: str,
        tags: Mapping[str, tuple[int, int]],
        load_board=None,
    ):
        self.comm = comm
        self.plane = str(plane)
        self.name = str(name)
        self.tags = dict(tags)
        self.load_board = load_board
        self.senders: dict[tuple[str, int], "ReliableSender"] = {}
        self.receivers: dict[tuple[str, int], "ReliableReceiver"] = {}
        self.timelines: dict[str, "Timeline"] = {}
        claims = getattr(comm, "_flow_tag_claims", None)
        if claims is None:
            claims = comm._flow_tag_claims = {}
        mine = sorted(t for pair in self.tags.values() for t in pair)
        for tag in mine:
            if tag in claims:
                raise ConfigError(
                    f"flow table {self.plane}:{self.name!r} needs tag {tag}, "
                    f"still claimed on this communicator by open table "
                    f"{claims[tag][0]}:{claims[tag][1]!r}; close that one "
                    "first or pick another name",
                    details={
                        "plane": self.plane, "name": self.name, "tag": tag,
                        "holder": list(claims[tag]),
                    },
                )
        claims.update((tag, (self.plane, self.name)) for tag in mine)
        self._claims, self._mine = claims, mine

    def _open(self, cache: dict, endpoint, flow: str, peer: int, *args, **kw):
        key = (flow, int(peer))
        if key not in cache:
            data_tag, ack_tag = self.tags[flow]
            pipeline = f"{self.name}.{flow}" if self.name else flow
            if flow not in self.timelines:
                self.timelines[flow] = new_transport_timeline(
                    f"{self.plane}.{pipeline}.rank{self.comm.rank}"
                )
            cache[key] = endpoint(
                self.comm, peer, *args, data_tag=data_tag, ack_tag=ack_tag,
                pipeline=pipeline, timeline=self.timelines[flow], **kw,
            )
        return cache[key]

    def sender(self, flow: str, peer: int, config=None):
        """The cached sender of ``flow`` to ``peer`` (built on first use)."""
        from repro.transport.channel import ReliableSender

        return self._open(
            self.senders, ReliableSender, flow, peer, config,
            load_board=self.load_board,
        )

    def receiver(self, flow: str, peer: int, config=None):
        """The cached receiver of ``flow`` from ``peer``."""
        from repro.transport.channel import ReliableReceiver

        return self._open(self.receivers, ReliableReceiver, flow, peer, config)

    def close_senders(self, flow: str | None = None) -> None:
        """Drain every open sender (of one flow, or all) in key order."""
        for key in sorted(self.senders):
            sender = self.senders[key]
            if flow in (None, key[0]) and not sender.closed:
                sender.close()

    def sender_totals(self, flow: str | None = None) -> dict:
        """Counters summed over this rank's senders (of one flow, or all)."""
        out = {
            "steps": 0, "raw_bytes": 0, "wire_bytes": 0, "bytes_out": 0,
            "retries": 0, "drops_recovered": 0, "chunks_sent": 0,
            "backoff_time": 0.0,
        }
        count = 0
        for key in sorted(self.senders):
            if flow in (None, key[0]):
                count += 1
                for field in out:
                    out[field] += getattr(self.senders[key].metrics, field)
        out["senders"] = count
        return out

    def release(self) -> None:
        """Give the table's tags back to the communicator."""
        for tag in self._mine:
            self._claims.pop(tag, None)
        self._mine = []
