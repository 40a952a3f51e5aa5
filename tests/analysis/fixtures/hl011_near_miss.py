"""Fixture: HL011 near misses — tag-shaped code the rule must not flag."""

from repro.transport.flows import CTRL_TAG, DATA_TAG, array_tags, pipeline_tags

# A re-export of a registry name is not a second definition.
LEGACY_DATA_TAG = DATA_TAG
TAG_WIDTH = 4  # not a *_TAG name
RETAG = 3  # ends in TAG, not in _TAG


def registry_tags(comm, payload, index):
    data_tag, ack_tag = pipeline_tags(index)
    comm.send(payload, 1, tag=data_tag)
    comm.send(payload, 1, tag=CTRL_TAG)
    comm.send(payload, 1, tag=array_tags("grid")["halo"][0])
    return ack_tag


def default_parameter(comm, payload, tag=0):
    """A default in a signature is the callee's business (mpi.comm)."""
    comm.send(payload, 1, tag)


def other_keywords(window, table):
    window.resize(credits=8)
    table.sender("halo", 1, timeline=None)
    return {"tag": 5, "data_tag": 6}
