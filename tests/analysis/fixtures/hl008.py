"""Fixture: HL008 — device charge bypasses the resolved placement.

Never executed; parsed by the linter in tests/analysis/test_rules.py.
Lines carrying a violation are marked with a trailing `# expect: HLxxx`
comment the test harness reads back.
"""

from repro.hamr.allocator import HOST_DEVICE_ID
from repro.sensei.placement import select_device


def double_charges(self, payload, comm, rank):
    device = self.placement.resolve(rank)
    run_kernel(payload, device_id=0)  # expect: HL008
    return device


def double_charges_via_select(payload, rank, n):
    dev = select_device(rank, n_available=n)
    charge_work(payload, device_id=1)  # expect: HL008
    return dev


def double_charges_via_resolver(self, payload):
    device_id = self.resolve_device()
    stage(payload, device_id=2)  # expect: HL008
    return device_id


def charges_resolved_device(self, payload, comm, rank):
    device = self.placement.resolve(rank)
    run_kernel(payload, device_id=device)  # ok: charges what Eq. 1 said
    return device


def host_staging_is_exempt(self, payload, rank):
    device = self.placement.resolve(rank)
    stage(payload, device_id=HOST_DEVICE_ID)  # ok: host is not governed
    run_kernel(payload, device_id=-1)  # ok: host spelled as a literal
    return device


def no_resolution_no_opinion(payload):
    # Without a resolved placement in scope the ordinal may be the
    # whole program's explicit manual choice; not this rule's call.
    run_kernel(payload, device_id=3)


def deliberate_cross_device(self, payload, rank):
    device = self.placement.resolve(rank)
    # Peer staging ahead of a device-to-device gather is deliberate.
    stage(payload, device_id=1)  # lint: disable=HL008
    return device


def run_kernel(payload, device_id):
    return payload, device_id


def charge_work(payload, device_id):
    return payload, device_id


def stage(payload, device_id):
    return payload, device_id
