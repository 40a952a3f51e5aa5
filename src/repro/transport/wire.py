"""The versioned wire format: chunked, checksummed column payloads.

A step's columns stream through the codec as they lie in memory into
one blob (dtype/length metadata aside), cut into :class:`Chunk`\\ s and
decoded into one buffer the delivered columns view.  Each chunk carries
a CRC32 of its payload so the receiver can detect corruption and simply
withhold the ACK — corruption recovery falls out of the retry loop.

Codecs are pluggable.  Compression is *charged to the simulated clock*
(CPU seconds per byte at the codec's modeled throughput) while the
communicator charges transfer for the *compressed* bytes, so the
compression knob visibly trades CPU time for transfer time in the
simulated timings and the Chrome trace.
"""

from __future__ import annotations

import zlib
from contextlib import nullcontext
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import TransportError
from repro.hamr.runtime import current_clock
from repro.mpi.waits import off_scheduler
from repro.units import KiB, MiB, gbs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.svtk.table import TableData

__all__ = [
    "WIRE_VERSION",
    "Codec",
    "Chunk",
    "StepAssembler",
    "available_codecs",
    "get_codec",
    "encode_step",
    "decode_step",
]

#: Version stamped into every chunk; receivers reject mismatches.
WIRE_VERSION = 1

#: Default chunk payload size.
DEFAULT_CHUNK_BYTES = 64 * KiB

#: Modeled memcpy throughput for raw (uncompressed) serialization.
SERIALIZE_BANDWIDTH = gbs(8.0)

#: Simulated per-chunk header size on the wire (version, seqs, crc, meta).
HEADER_NBYTES = 64


class Codec:
    """A compression codec plus its simulated CPU cost model.

    ``compress_bandwidth`` / ``decompress_bandwidth`` are bytes/second
    of *input* processed; they drive the simulated-clock charge, not
    wall time.
    """

    name = "none"
    compress_bandwidth = SERIALIZE_BANDWIDTH
    decompress_bandwidth = SERIALIZE_BANDWIDTH

    def compress(self, parts: Sequence) -> bytes:
        """The wire blob of a sequence of buffers joined end to end."""
        return b"".join(parts)

    def decompress(self, payloads: Sequence[bytes], nbytes: int) -> bytearray:
        """The blob cut into ``payloads``, decoded into one new writable
        buffer (``nbytes`` long if the header is true)."""
        return bytearray().join(payloads)

    def compress_time(self, nbytes: int) -> float:
        return nbytes / self.compress_bandwidth

    def decompress_time(self, nbytes: int) -> float:
        return nbytes / self.decompress_bandwidth


class ZlibCodec(Codec):
    """DEFLATE at a fast level — the baseline general-purpose codec."""

    name = "zlib"
    # Modeled as an LZ-class fast path; real zlib-1 is slower, but the
    # ordering (compress slower than memcpy, decompress faster than
    # compress) is what the cost model needs to preserve.
    compress_bandwidth = gbs(2.0)
    decompress_bandwidth = gbs(4.0)

    def __init__(self, level: int = 1):
        self.level = int(level)

    def compress(self, parts: Sequence) -> bytes:
        # One stream over the parts: byte for byte zlib.compress(join).
        z = zlib.compressobj(self.level)
        return b"".join([*map(z.compress, parts), z.flush()])

    def decompress(self, payloads: Sequence[bytes], nbytes: int) -> bytearray:
        if nbytes > 1032 * sum(map(len, payloads)):  # DEFLATE's top ratio
            raise ValueError(f"cannot inflate to {nbytes} bytes")
        out, end, z = bytearray(nbytes), 0, zlib.decompressobj()
        for data in payloads:
            piece = z.decompress(data)
            out[end:end + len(piece)] = piece  # grows only past nbytes
            end += len(piece)
        if not z.eof or z.unused_data or end != nbytes:
            raise ValueError(f"not one deflate stream of {nbytes} bytes")
        return out


_CODECS: dict[str, type[Codec]] = {"none": Codec, "zlib": ZlibCodec}


#: Raw bytes from which a codec call runs away, beside the baton
#: holder.  Measured on 2 vCPUs: a trace replay's calls (<= 32 KiB)
#: spent 0.30-0.47 s of wall on ~0.13 s of zlib CPU away, 0.07-0.12 s
#: on the baton; a bulk transfer's 8 MiB calls held on the baton made
#: its run 3-19 % slower and 6 MiB bigger.
AWAY_MIN_BYTES = MiB


def _codec_call(codec: Codec, nbytes: int):
    """Where a codec call on ``nbytes`` raw bytes runs: a real codec is
    pure and releases the interpreter lock, so a big call goes off the
    scheduler, away beside other ranks; a smaller one, or codec
    ``none``, runs inline holding the baton.  Its simulated charge is a
    function of byte counts alone, so the place changes no result."""
    if codec.name == "none" or nbytes < AWAY_MIN_BYTES:
        return nullcontext()
    return off_scheduler()


def available_codecs() -> tuple[str, ...]:
    return tuple(sorted(_CODECS))


def get_codec(name: str) -> Codec:
    try:
        return _CODECS[name]()
    except (KeyError, TypeError):  # TypeError: an unhashable "name"
        raise TransportError(
            f"unknown codec {name!r}; available: {', '.join(available_codecs())}",
            details={"codec": name},
        ) from None


@dataclass(frozen=True)
class Chunk:
    """One wire unit: a slice of a step's (possibly compressed) blob.

    ``meta`` travels on every chunk (it is small) so assembly never
    depends on which chunk arrives first.
    """

    version: int
    step: int
    sim_time: float
    index: int
    total: int
    checksum: int
    codec: str
    raw_nbytes: int
    meta: tuple  # ((column name, dtype str, length), ...)
    payload: bytes
    #: Service-plane routing stamp; "" for single-pipeline flows.  The
    #: stamp rides in the fixed-size header, so ``wire_nbytes`` does not
    #: change with the pipeline name.
    pipeline: str = ""

    @property
    def wire_nbytes(self) -> int:
        """Bytes this chunk occupies on the wire (payload + header)."""
        return len(self.payload) + HEADER_NBYTES

    @property
    def seq(self) -> tuple[int, int]:
        """The (step, chunk index) sequence number receivers dedup by."""
        return (self.step, self.index)

    def verify(self) -> bool:
        """True if the payload matches the recorded checksum."""
        return zlib.crc32(self.payload) == self.checksum

    def corrupted(self) -> "Chunk":
        """A copy with one payload byte flipped (fault-injection aid)."""
        if not self.payload:
            return self
        flipped = bytearray(self.payload)
        flipped[0] ^= 0xFF
        return replace(self, payload=bytes(flipped))


def encode_step(
    table: "TableData",
    step: int,
    sim_time: float,
    codec: str | Codec = "none",
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    pipeline: str = "",
) -> list[Chunk]:
    """Serialize a table into wire chunks, charging CPU to the clock.

    The charge is serialization (memcpy-rate) plus the codec's
    compression time over the raw bytes.
    """
    if chunk_bytes < 1:
        raise TransportError(f"chunk_bytes must be >= 1: {chunk_bytes}")
    codec = get_codec(codec) if isinstance(codec, str) else codec
    arrays = [
        np.ascontiguousarray(table.column(name).as_numpy_host())
        for name in table.column_names
    ]
    meta = tuple(
        (name, a.dtype.str, int(a.size))
        for name, a in zip(table.column_names, arrays)
    )
    raw_nbytes = sum(a.nbytes for a in arrays)
    clock = current_clock()
    clock.advance(raw_nbytes / SERIALIZE_BANDWIDTH)
    with _codec_call(codec, raw_nbytes):
        wire_blob = codec.compress([a.reshape(-1).view(np.uint8) for a in arrays])
    if codec.name != "none":
        clock.advance(codec.compress_time(raw_nbytes))
    cuts = range(0, len(wire_blob), chunk_bytes)
    payloads = [wire_blob[i:i + chunk_bytes] for i in cuts] or [b""]
    return [
        Chunk(
            version=WIRE_VERSION, step=int(step), sim_time=float(sim_time),
            index=i, total=len(payloads), checksum=zlib.crc32(payload),
            codec=codec.name, raw_nbytes=raw_nbytes, meta=meta,
            payload=payload, pipeline=pipeline,
        )
        for i, payload in enumerate(payloads)
    ]


#: Header fields every chunk of one step must agree on.
_SET_FIELDS = ("version", "step", "total", "codec", "raw_nbytes", "meta")
_set_header = attrgetter(*_SET_FIELDS)


def _bad_header(first: Chunk, field: str, why: str) -> TransportError:
    """The error for a chunk set whose header cannot be believed."""
    return TransportError(
        f"step {first.step}: bad header field {field!r}: {why}",
        details={"step": first.step, "field": field},
    )


def decode_step(chunks: list[Chunk]) -> tuple[int, float, dict[str, np.ndarray]]:
    """Reassemble a complete chunk set into ``(step, time, columns)``.

    Charges decompression CPU to the receiver's simulated clock.  The
    CRC covers only each payload, so the header is validated here, once:
    whatever it claims, the outcome is the payload's own bytes cut into
    columns or a :class:`~repro.errors.TransportError` whose ``details``
    name the step and the field — never another exception.
    """
    if not chunks:
        raise TransportError("cannot decode an empty chunk set")
    first = chunks[0]
    if first.version != WIRE_VERSION:
        raise _bad_header(
            first, "version", f"got {first.version}, speak {WIRE_VERSION}"
        )
    have = {c.index: c for c in chunks if isinstance(c.index, int)}
    if first.total != len(chunks) or sorted(have) != list(range(len(chunks))):
        raise _bad_header(
            first, "total", f"incomplete set, have {sorted(have)} of {first.total}"
        )
    ordered = [have[i] for i in range(len(chunks))]
    want = _set_header(first)
    for c in ordered:
        if _set_header(c) != want:
            field = next(
                f for f in _SET_FIELDS if getattr(c, f) != getattr(first, f)
            )
            raise _bad_header(first, field, "the chunks of one set disagree")
    try:
        layout = [
            (name, np.dtype(dtype_str), int(length))
            for name, dtype_str, length in first.meta
        ]
    except (TypeError, ValueError, SyntaxError, OverflowError) as exc:
        raise _bad_header(first, "meta", f"unreadable layout ({exc})") from None
    names = {name for name, _, _ in layout if isinstance(name, str)}
    if len(names) != len(layout) or any(
        n < 0 or not dt.itemsize or dt.hasobject for _, dt, n in layout
    ):
        raise _bad_header(
            first, "meta", "needs distinct names, sized dtypes, lengths >= 0"
        )
    if sum(dt.itemsize * n for _, dt, n in layout) != first.raw_nbytes:
        raise _bad_header(first, "raw_nbytes", "columns do not add up to it")
    codec = get_codec(first.codec)
    try:
        # Codecs are pluggable: what a wrong payload raises is theirs.
        with _codec_call(codec, first.raw_nbytes):
            blob = codec.decompress([c.payload for c in ordered], first.raw_nbytes)
    except Exception as exc:
        raise _bad_header(
            first, "codec", f"{codec.name} cannot decode the payload ({exc})"
        ) from exc
    if codec.name != "none":
        current_clock().advance(codec.decompress_time(first.raw_nbytes))
    if len(blob) != first.raw_nbytes:
        raise _bad_header(first, "raw_nbytes", f"decoded {len(blob)} bytes")
    columns, offset = {}, 0
    for name, dt, length in layout:  # views of the blob, unless misaligned
        column = np.frombuffer(blob, dtype=dt, count=length, offset=offset)
        columns[name] = column if column.flags.aligned else column.copy()
        offset += dt.itemsize * length
    return first.step, first.sim_time, columns


class StepAssembler:
    """Receiver-side reassembly with (step, chunk) dedup.

    Chunks may arrive out of order, duplicated, or for steps already
    delivered; :meth:`offer` classifies each one.  Completed steps stay
    in the dedup set so late duplicates are recognized forever.
    """

    def __init__(self):
        self._pending: dict[int, dict[int, Chunk]] = {}
        self._done: set[int] = set()

    def offer(self, chunk: Chunk) -> str:
        """Add a chunk; returns ``"new"``, ``"duplicate"``, or ``"complete"``."""
        if chunk.step in self._done:
            return "duplicate"
        have = self._pending.setdefault(chunk.step, {})
        if chunk.index in have:
            return "duplicate"
        have[chunk.index] = chunk
        if len(have) == chunk.total:
            return "complete"
        return "new"

    def take(self, step: int) -> tuple[int, float, dict[str, np.ndarray]]:
        """Decode and retire a completed step."""
        chunks = list(self._pending.pop(step).values())
        self._done.add(step)
        return decode_step(chunks)
