"""Wire-format tests: codecs, chunking, checksums, reassembly."""

from __future__ import annotations

import dataclasses
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TransportError
from repro.hamr.runtime import current_clock
from repro.mpi import run_spmd
from repro.mpi.waits import current_context, off_scheduler
from repro.transport import wire
from repro.transport.wire import (
    AWAY_MIN_BYTES,
    DEFAULT_CHUNK_BYTES,
    SERIALIZE_BANDWIDTH,
    WIRE_VERSION,
    Chunk,
    StepAssembler,
    ZlibCodec,
    available_codecs,
    decode_step,
    encode_step,
    get_codec,
)
from repro.svtk.table import TableData
from tests.support import traced_peak


def make_table(n=1000, seed=0):
    rng = np.random.default_rng(seed)
    t = TableData("bodies")
    t.add_host_column("x", rng.standard_normal(n))
    t.add_host_column("mass", rng.uniform(0.01, 0.03, n))
    return t


class TestCodecs:
    def test_registry(self):
        assert "none" in available_codecs()
        assert "zlib" in available_codecs()

    def test_unknown_codec_is_structured_error(self):
        with pytest.raises(TransportError) as ei:
            get_codec("snappy")
        assert ei.value.details["codec"] == "snappy"

    def test_none_codec_roundtrip(self):
        c = get_codec("none")
        assert c.decompress([c.compress([b"abc"])], 3) == b"abc"

    def test_zlib_roundtrip_and_shrinks(self):
        c = get_codec("zlib")
        data = b"\x00" * 4096
        packed = c.compress([data])
        assert len(packed) < len(data)
        assert c.decompress([packed], len(data)) == data

    def test_zlib_costs_more_cpu_than_memcpy(self):
        z = get_codec("zlib")
        assert z.compress_time(1 << 20) > (1 << 20) / SERIALIZE_BANDWIDTH
        assert z.decompress_time(1 << 20) < z.compress_time(1 << 20)


class TestEncodeDecode:
    def test_roundtrip_identity(self):
        t = make_table()
        chunks = encode_step(t, step=3, sim_time=1.5, codec="none")
        step, sim_time, cols = decode_step(chunks)
        assert step == 3 and sim_time == 1.5
        for name in t.column_names:
            np.testing.assert_array_equal(
                cols[name], t.column(name).as_numpy_host()
            )

    @pytest.mark.parametrize("codec", ["none", "zlib"])
    def test_roundtrip_all_codecs_byte_identical(self, codec):
        t = make_table(seed=7)
        chunks = encode_step(t, 0, 0.0, codec=codec, chunk_bytes=1024)
        _, _, cols = decode_step(chunks)
        for name in t.column_names:
            expect = t.column(name).as_numpy_host()
            assert cols[name].tobytes() == np.ascontiguousarray(expect).tobytes()

    def test_chunking_respects_chunk_bytes(self):
        t = make_table(n=4096)
        chunks = encode_step(t, 0, 0.0, chunk_bytes=1024)
        assert len(chunks) > 1
        assert all(len(c.payload) <= 1024 for c in chunks)
        assert {c.index for c in chunks} == set(range(chunks[0].total))
        assert all(c.version == WIRE_VERSION for c in chunks)

    def test_encode_charges_serialization_to_clock(self):
        t = make_table(n=2048)
        raw = sum(
            t.column(n).as_numpy_host().nbytes for n in t.column_names
        )
        clock = current_clock()
        t0 = clock.now
        encode_step(t, 0, 0.0, codec="none")
        assert clock.now - t0 == pytest.approx(raw / SERIALIZE_BANDWIDTH)

    def test_compression_charges_extra_cpu(self):
        t = make_table(n=2048)
        clock = current_clock()
        t0 = clock.now
        encode_step(t, 0, 0.0, codec="none")
        plain = clock.now - t0
        t1 = clock.now
        encode_step(t, 0, 0.0, codec="zlib")
        assert clock.now - t1 > plain

    def test_wire_nbytes_includes_header(self):
        t = make_table(n=16)
        (c,) = encode_step(t, 0, 0.0)
        assert c.wire_nbytes == len(c.payload) + 64

    def test_decode_incomplete_set_rejected(self):
        t = make_table(n=4096)
        chunks = encode_step(t, 0, 0.0, chunk_bytes=1024)
        with pytest.raises(TransportError):
            decode_step(chunks[:-1])

    def test_decode_version_mismatch_rejected(self):
        t = make_table(n=16)
        (c,) = encode_step(t, 0, 0.0)
        imposter = Chunk(
            99, c.step, c.sim_time, c.index, c.total, c.checksum,
            c.codec, c.raw_nbytes, c.meta, c.payload,
        )
        with pytest.raises(TransportError):
            decode_step([imposter])

    def test_decode_empty_rejected(self):
        with pytest.raises(TransportError):
            decode_step([])


class _Columns:
    """What ``encode_step`` reads of a table — names and host arrays —
    without the table's one-row-count, one-component rule."""

    def __init__(self, layout):
        self.column_names = [name for name, _ in layout]
        self._arrays = dict(layout)

    def column(self, name):
        return SimpleNamespace(as_numpy_host=lambda: self._arrays[name])


_RNG = np.random.default_rng(3)
_LAYOUTS = {
    "int8 then float64": [
        ("i", _RNG.integers(-100, 100, 37).astype(np.int8)),
        ("f", _RNG.normal(size=37)),
    ],
    "2-component": [
        ("v", _RNG.normal(size=(37, 2))),
        ("m", _RNG.normal(size=37).astype(np.float32)),
    ],
    "zero-length among others": [
        ("a", np.arange(3, dtype=np.int8)),
        ("e", np.zeros(0)),
        ("f", np.arange(4, dtype=">f8")),
    ],
    "all zero-length": [("e", np.zeros(0)), ("b", np.zeros(0, np.int8))],
}


class TestStreamingCodec:
    """The codec runs over the column buffers and the receiver decodes
    into the delivered columns: the wire bytes are those of the joined,
    compressed blob, and no step is held in full more often than needed."""

    @pytest.mark.parametrize("chunk_bytes", [1, 7, 4096])
    @pytest.mark.parametrize("codec", ["none", "zlib"])
    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    def test_payloads_are_the_joined_blob_and_columns_its_views(
        self, layout, codec, chunk_bytes
    ):
        arrays = _LAYOUTS[layout]
        blob = b"".join(a.tobytes() for _, a in arrays)
        wire_blob = zlib.compress(blob, 1) if codec == "zlib" else blob
        chunks = encode_step(_Columns(arrays), 0, 0.0, codec, chunk_bytes)
        assert [c.payload for c in chunks] == [
            wire_blob[i:i + chunk_bytes]
            for i in range(0, max(len(wire_blob), 1), chunk_bytes)
        ]
        _, _, columns = decode_step(chunks)
        assert list(columns) == [name for name, _ in arrays]
        offset = 0
        for name, a in arrays:
            got = columns[name]
            assert got.dtype == a.dtype and got.tobytes() == a.tobytes()
            assert got.flags.writeable and got.flags.aligned
            # An empty column counts as aligned wherever it starts.
            misaligned = a.size > 0 and offset % a.dtype.alignment != 0
            assert (got.base is None) == misaligned, (name, offset)
            offset += a.nbytes

    @pytest.mark.parametrize("codec", ["none", "zlib"])
    def test_an_8_mib_step_round_trip_stays_bounded(self, codec):
        """zlib peaks at the raw step plus two compressed copies, none at
        2.25 raw steps (11.0 and 16.1 MiB measured); joining `tobytes()`
        copies, decompressing to `bytes` and copying each column out
        takes 25.6 and 24.0 MiB."""
        rng = np.random.default_rng(17)
        t = TableData("field")
        t.add_host_column("rho", np.round(rng.normal(size=1 << 20) * 64) / 64)
        raw = 8 * 2**20
        decode_step(encode_step(make_table(n=64), 0, 0.0, codec))  # warm up

        def round_trip():
            chunks = encode_step(t, 0, 0.0, codec)
            return sum(len(c.payload) for c in chunks), decode_step(chunks)[2]

        (compressed, columns), peak = traced_peak(round_trip)
        np.testing.assert_array_equal(columns["rho"], t.column("rho").as_numpy_host())
        bound = raw + 2 * compressed if codec == "zlib" else 2.25 * raw
        assert peak <= bound, (peak, bound)


class TestLyingHeaders:
    """The CRC covers only the payload, so ``decode_step`` must survive
    a header that lies: the payload's own bytes or a ``TransportError``
    naming step and field — never another exception."""

    @pytest.mark.parametrize(
        "field, value, blamed",
        [
            ("codec", "zlib", "codec"),  # raw payload (parent: zlib.error)
            ("meta", (("x", "no-such-dtype", 16),), "meta"),  # TypeError
            # Columns past the blob (parent: ValueError) or short of it:
            # the layout and the byte count cannot both be true.
            ("meta", (("x", "<f8", 1 << 40),), "raw_nbytes"),
            ("raw_nbytes", 7, "raw_nbytes"),
            ("meta", (("x", "<f8", -1),), "meta"),  # "all remaining rows"
            ("meta", (("x", "<f8", 8), ("x", "<f8", 8)), "meta"),
            ("total", 2, "total"),  # one chunk of two: incomplete
        ],
    )
    def test_each_named_lie_is_a_transport_error(self, field, value, blamed):
        t = TableData("bodies")
        t.add_host_column("x", np.arange(16.0))
        (c,) = encode_step(t, 4, 0.5)
        with pytest.raises(TransportError) as err:
            decode_step([dataclasses.replace(c, **{field: value})])
        assert err.value.details["step"] == 4
        assert err.value.details.get("field") == blamed

    @pytest.mark.parametrize("cut", ["trailing junk", "truncated"])
    def test_a_zlib_payload_that_is_not_one_stream_is_a_lie(self, cut):
        """The CRC is recomputed over the lie, so only the codec can tell
        that bytes follow the deflate stream, or that it never ends."""
        t = TableData("bodies")
        t.add_host_column("x", np.arange(16.0))
        (c,) = encode_step(t, 4, 0.5, "zlib")
        payload = c.payload + b"junk" if cut == "trailing junk" else c.payload[:-1]
        lying = dataclasses.replace(c, payload=payload, checksum=zlib.crc32(payload))
        assert lying.verify()
        with pytest.raises(TransportError) as err:
            decode_step([lying])
        assert err.value.details == {"step": 4, "field": "codec"}

    def test_a_size_no_payload_can_inflate_to_is_refused_unallocated(self):
        """Layout and byte count agree on 1 TiB: the receiver would
        allocate it before inflating a single byte, so the codec refuses."""
        t = TableData("bodies")
        t.add_host_column("x", np.arange(16.0))
        (c,) = encode_step(t, 4, 0.5, "zlib")
        lying = dataclasses.replace(c, raw_nbytes=1 << 40, meta=(("x", "<f8", 1 << 37),))
        with pytest.raises(TransportError) as err:
            decode_step([lying])
        assert err.value.details == {"step": 4, "field": "codec"}

    def test_chunks_of_one_set_must_agree(self):
        chunks = encode_step(make_table(n=256), 2, 0.0, chunk_bytes=1024)
        assert len(chunks) > 2
        for field, value in [("codec", "zlib"), ("raw_nbytes", 8), ("step", 3),
                             ("meta", (("x", "<f8", 512),))]:
            lying = list(chunks)
            lying[1] = dataclasses.replace(lying[1], **{field: value})
            with pytest.raises(TransportError) as err:
                decode_step(lying)
            assert err.value.details == {"step": 2, "field": field}

    _VALUES = st.one_of(
        st.none(), st.booleans(), st.integers(-4, 1 << 40),
        st.floats(allow_nan=True), st.text(max_size=3),
        st.sampled_from(["none", "zlib", "<f8", "<i4", ">u2", "O", "S", ","]),
        st.lists(
            st.tuples(
                st.sampled_from(["x", "mass", "", "y"]),
                st.sampled_from(["<f8", "<f4", "<i8", "|u1", "V0", "O", "?", ","]),
                st.integers(-2, 300),
            ),
            max_size=3,
        ).map(tuple),
    )

    @given(
        codec=st.sampled_from(["none", "zlib"]),
        rows=st.integers(0, 64),
        chunk_bytes=st.integers(16, 512),
        field=st.sampled_from([f.name for f in dataclasses.fields(Chunk)]),
        value=_VALUES,
        victim=st.integers(-1, 64),
        flip=st.integers(0, 1 << 16),
    )
    def test_fuzzed_frames_decode_to_the_payload_or_raise_transport_error(
        self, codec, rows, chunk_bytes, field, value, victim, flip
    ):
        """One header field (of one chunk, or of all: ``victim`` -1) or
        one payload byte is overwritten; the receiver's path is the
        checksum verdict, then ``decode_step`` over what verified."""
        table = make_table(n=rows)
        blob = b"".join(
            np.ascontiguousarray(table.column(n).as_numpy_host()).tobytes()
            for n in table.column_names
        )
        chunks = encode_step(table, 3, 0.25, codec, chunk_bytes)
        if field == "payload":
            value = bytearray(chunks[victim % len(chunks)].payload)
            if value:
                value[flip % len(value)] ^= 0x5A
            value = bytes(value)
            victim = max(victim, 0)  # the same payload everywhere is no lie
        mutated = [
            dataclasses.replace(c, **{field: value})
            if victim < 0 or i == victim % len(chunks) else c
            for i, c in enumerate(chunks)
        ]
        try:
            _step, _time, columns = decode_step(
                [c for c in mutated if c.verify()]
            )
        except TransportError:
            return
        assert b"".join(v.tobytes() for v in columns.values()) == blob


class TestChecksum:
    def test_verify_and_corrupt(self):
        t = make_table(n=64)
        (c,) = encode_step(t, 0, 0.0)
        assert c.verify()
        bad = c.corrupted()
        assert not bad.verify()
        assert bad.seq == c.seq


class TestStepAssembler:
    def test_out_of_order_and_duplicates(self):
        t = make_table(n=4096)
        chunks = encode_step(t, 5, 0.5, chunk_bytes=1024)
        asm = StepAssembler()
        statuses = [asm.offer(c) for c in reversed(chunks)]
        assert statuses[-1] == "complete"
        assert all(s == "new" for s in statuses[:-1])
        # Duplicate before take: recognized via pending set.
        assert asm.offer(chunks[0]) == "duplicate"
        step, _, cols = asm.take(5)
        assert step == 5
        np.testing.assert_array_equal(
            cols["x"], t.column("x").as_numpy_host()
        )
        # Late duplicate after delivery: permanently recognized.
        assert asm.offer(chunks[1]) == "duplicate"


class TestWhereCodecCallsRun:
    """Small codec calls run inline holding the baton; big ones go away."""

    @pytest.fixture
    def aways(self, monkeypatch):
        """One entry per codec call sent off the scheduler."""
        calls: list[str] = []

        def spy():
            calls.append("away")
            return off_scheduler()

        monkeypatch.setattr(wire, "off_scheduler", spy)
        return calls

    def test_a_seeded_run_records_the_same_trace_either_way(
        self, monkeypatch, aways
    ):
        """Where a codec call runs moves no simulated result: every call
        of a request stream inline, or every one away, records the same
        bytes."""
        from repro.workloads import record_zoo

        def record() -> str:
            aways.clear()
            return record_zoo("request-stream", seed=7, quick=True)[0].to_jsonl()

        inline = record()
        assert aways == []  # every chunk set is small
        monkeypatch.setattr(wire, "AWAY_MIN_BYTES", 0)
        away = record()
        assert aways
        assert away == inline

    def test_a_large_step_still_goes_away(self, monkeypatch, aways):
        """The overlap a bulk transfer relies on: a step of
        AWAY_MIN_BYTES is encoded and decoded beside the baton holder;
        one byte less runs inline, holding the baton, with no scheduling
        point."""
        seen = []

        def watched(method):
            def wrapper(codec, *args):
                ctx = current_context()
                seen.append(
                    "away" if ctx in ctx.table._away
                    else "baton" if ctx.table.holder is ctx else "?"
                )
                return method(codec, *args)

            return wrapper

        for name in ("compress", "decompress"):
            monkeypatch.setattr(
                ZlibCodec, name, watched(getattr(ZlibCodec, name))
            )

        def fn(comm):
            if comm.rank:
                return
            for nbytes in (AWAY_MIN_BYTES, AWAY_MIN_BYTES - 1):
                t = TableData("bulk")
                t.add_host_column("b", np.zeros(nbytes, dtype=np.uint8))
                decode_step(encode_step(t, 0, 0.0, codec="zlib"))

        run_spmd(2, fn)
        assert aways == ["away", "away"]
        assert seen == ["away", "away", "baton", "baton"]
