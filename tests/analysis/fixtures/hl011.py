"""Fixture: HL011 — integer message tags minted outside the registry."""

from repro.transport.channel import ReliableReceiver, ReliableSender

SIDE_CHANNEL_TAG = 4242  # expect: HL011
PROBE_ACK_TAG: int = 4243  # expect: HL011


def hand_numbered_flow(comm, config):
    sender = ReliableSender(comm, 1, config, data_tag=70000,  # expect: HL011
                            ack_tag=70001)  # expect: HL011
    return sender


def hand_numbered_message(comm, payload):
    comm.send(payload, 1, tag=7)  # expect: HL011


class Exchanger:
    HALO_TAG = 70002  # expect: HL011


def suppressed(comm, config):
    return ReliableReceiver(comm, 0, config, data_tag=9)  # lint: disable=HL011
