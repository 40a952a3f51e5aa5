"""Fixture: HL003 — asynchronous stream never synchronized."""

from repro.hamr.stream import Stream, StreamMode


def leaky(copy_fn, buf):
    strm = Stream(device_id=1)  # expect: HL003
    copy_fn(buf, stream=strm, mode=StreamMode.ASYNC)


def synchronized(copy_fn, buf, clock):
    strm = Stream(device_id=1)
    copy_fn(buf, stream=strm, mode=StreamMode.ASYNC)
    strm.synchronize(clock)


def buffer_synchronized(copy_fn, buf):
    # Synchronizing the buffers ordered on the stream also discharges it.
    strm = Stream(device_id=1)
    copy_fn(buf, stream=strm, stream_mode=StreamMode.ASYNC)
    buf.synchronize()


def escapes_to_caller(copy_fn, buf):
    strm = Stream(device_id=1)
    copy_fn(buf, stream=strm, mode=StreamMode.ASYNC)
    return strm


def sync_mode_is_fine(copy_fn, buf):
    strm = Stream(device_id=1)
    copy_fn(buf, stream=strm, mode=StreamMode.SYNC)


def suppressed(copy_fn, buf):
    strm = Stream(device_id=1)  # lint: disable=HL003
    copy_fn(buf, stream=strm, mode=StreamMode.ASYNC)
