"""Fixture: HL007 — pool acquire without release in scope.

Never executed; parsed by the linter in tests/analysis/test_rules.py.
Lines carrying a violation are marked with a trailing `# expect: HLxxx`
comment the test harness reads back.
"""

from repro.hamr.pool import pool_for


def leaky(resource, nbytes):
    pool = pool_for(resource)
    pool.acquire(nbytes)  # expect: HL007
    return nbytes


def leaky_inline(resource, nbytes):
    pool_for(resource).acquire(nbytes)  # expect: HL007


def balanced(resource, nbytes):
    pool = pool_for(resource)
    hit = pool.acquire(nbytes)
    pool.release(nbytes)  # discharge: release in the same scope
    return hit


def trimmed(resource, nbytes):
    pool = pool_for(resource)
    pool.acquire(nbytes)  # expect: HL007
    pool.trim_above(0)  # not a discharge: only release returns the block
    return nbytes


def handed_off(resource, nbytes):
    pool = pool_for(resource)
    pool.acquire(nbytes)
    return pool  # escape: releasing is the caller's responsibility


class Owner:
    def adopt(self, resource, nbytes):
        pool = pool_for(resource)
        pool.acquire(nbytes)
        self.pool = pool  # escape: stored, finalizer releases


def unrelated_lock(lock):
    lock.acquire()  # not a pool: no finding
    lock.release()


def suppressed(resource, nbytes):
    pool = pool_for(resource)
    pool.acquire(nbytes)  # lint: disable=HL007 -- freed by test teardown
