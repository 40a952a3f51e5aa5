"""Round-trip (de)serialization of the run configuration a trace needs.

The trace header embeds everything the replayer must reconstruct to
push the recorded traffic back through ``run_service`` bit-identically:
the service topology (pipelines with their transport wires), the
interconnect cost model, and the control-plane configuration.

The codec walks the config dataclasses' own fields and declared types,
so a field added to any of them is recorded and replayed with no edit
here.  A nested dataclass becomes a nested mapping, ``tuple[X, ...]`` a
list, ``X | None`` passes ``None`` through, and scalars are coerced to
the declared type on encode so ``weight=8`` and ``weight=8.0`` record
the same bytes (and a governor switch a JSON ``true``/``false``).  On
decode a scalar must already have its field's JSON type — ``"on"`` or
``"maybe"`` for a ``bool`` is a malformed header, not a truthy string.
``encode(decode(x)) == encode(x)`` exactly — the property the
record→replay→re-record fixpoint rests on.
"""

from __future__ import annotations

import dataclasses
from typing import get_args, get_origin, get_type_hints

from repro.control.plan import ControlConfig
from repro.errors import TraceFormatError
from repro.mpi.comm import CommCostModel
from repro.service.plan import PipelineSpec, ServiceConfig
from repro.transport.config import TransportConfig
from repro.xmlattrs import strip_optional

__all__ = ["encode_config", "decode_config"]

#: The header section a decode failure is reported under; a nested
#: config without an entry (retry policy, fault spec, flow bounds)
#: reports under the section that contains it.
_SECTIONS = {
    CommCostModel: "cost",
    ControlConfig: "control",
    TransportConfig: "transport",
    ServiceConfig: "service",
    PipelineSpec: "pipeline",
}

#: The JSON values a scalar field of each declared type decodes from
#: (``bool`` is an ``int`` to Python, so it is refused separately).
_JSON_TYPES = {bool: bool, int: int, float: (int, float), str: str}


def encode_config(config, tp=None):
    """The JSON-ready form of a config (``tp``: the declared type of a
    nested value, supplied by the recursion)."""
    if config is None:
        return None
    tp, _optional = strip_optional(tp or type(config))
    if dataclasses.is_dataclass(tp):
        hints = get_type_hints(tp)
        return {
            f.name: encode_config(getattr(config, f.name), hints[f.name])
            for f in dataclasses.fields(tp) if f.init
        }
    if get_origin(tp) is tuple:
        return [encode_config(item, get_args(tp)[0]) for item in config]
    return tp(config)


def decode_config(tp, payload, section: str | None = None):
    """Rebuild a ``tp`` from :func:`encode_config`'s output.

    ``tp`` may be ``X | None`` to accept a ``None`` payload.  Any
    malformed payload raises :class:`~repro.errors.TraceFormatError`
    whose ``details["section"]`` names the offending header section
    (for a dataclass outside ``_SECTIONS``, its class name).
    """
    tp, optional = strip_optional(tp)
    if optional and payload is None:
        return None
    if dataclasses.is_dataclass(tp):
        section = _SECTIONS.get(tp) or section or tp.__name__
        hints = get_type_hints(tp)

        def field(key, raw):
            try:
                return decode_config(hints[key], raw, section)
            except TypeError as exc:
                raise TypeError(f"{key}: {exc}") from None

        try:
            # Unknown keys go to the constructor untouched, which
            # rejects them; the except below makes that structured.
            return tp(**{
                key: field(key, raw) if key in hints else raw
                for key, raw in dict(payload).items()
            })
        except TraceFormatError:
            raise
        except Exception as exc:
            raise TraceFormatError(
                f"trace header carries an invalid {section} config: {exc}",
                details={"section": section},
            ) from exc
    if get_origin(tp) is tuple:
        item = get_args(tp)[0]
        return tuple(decode_config(item, raw, section) for raw in payload)
    allowed = _JSON_TYPES.get(tp, object)
    if not isinstance(payload, allowed) or (
        isinstance(payload, bool) and tp is not bool
    ):
        raise TypeError(f"expected {tp.__name__}, got {payload!r}")
    return payload
