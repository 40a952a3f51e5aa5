"""The one typed XML-attribute reader behind every config element.

``<analysis>`` (its common set and each built-in back-end's own) and
the ``<control>`` / ``<flow>`` attribute dicts of
:meth:`~repro.control.plan.ControlConfig.from_xml_attrs` are all read
the same way: an attribute is named like the dataclass field it sets,
is converted by the field's declared type, and — when absent — leaves
the field to its dataclass default.  A reader declares only extra
spellings (``devices_per_node`` → ``n_use``).  Adding a config field
is therefore one line in the dataclass; the attribute (and the
trace-header entry, see :mod:`repro.trace.configs`) follow from it.

Scalar vocabulary, identical for every element: ``int`` and ``float``
literals; booleans ``1/true/yes/on`` and ``0/false/no/off``; lists
``"0,2,5"`` / ``"x, y"``; and any type with a ``parse(text)``
classmethod (an enum such as ``BinningStrategy``).  The control
plane's governor switches are plain ``bool`` fields, so ``freeze`` or
any other word outside the boolean vocabulary is an error.  Every
failure is a :class:`~repro.errors.ConfigError` naming the element and
attribute.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, get_args, get_origin, get_type_hints

from repro.errors import ConfigError

__all__ = ["parse_bool", "strip_optional", "read_attrs", "reject_unknown"]

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def parse_bool(raw: str) -> bool:
    """The boolean vocabulary of every config element."""
    key = str(raw).strip().lower()
    if key not in _TRUE + _FALSE:
        raise ValueError(f"not a boolean: {raw!r}")
    return key in _TRUE


def strip_optional(tp):
    """``X | None`` → ``(X, True)``; anything else → ``(tp, False)``."""
    args = get_args(tp)
    if type(None) in args:
        return next(a for a in args if a is not type(None)), True
    return tp, False


def _converter(tp):
    """``(convert, noun)`` for an attribute-shaped type, else None."""
    tp, _optional = strip_optional(tp)
    if tp is bool:
        return parse_bool, "a boolean"
    if tp in (int, float, str):
        return tp, f"a{'n' if tp is int else ''} {tp.__name__}"
    if hasattr(tp, "parse"):
        return tp.parse, tp.__name__
    if get_origin(tp) is tuple and get_args(tp)[0] in (int, float, str):
        item = get_args(tp)[0]
        return (
            lambda raw: tuple(
                item(x.strip()) for x in raw.split(",") if x.strip()
            ),
            f"a comma-separated {item.__name__} list",
        )
    return None  # nested configs and the like: not an attribute


def read_attrs(
    label: str,
    attrs: dict[str, str],
    cls,
    names: Mapping[str, str] | None = None,
) -> dict:
    """Pop ``cls``'s fields out of ``attrs``; return constructor kwargs.

    ``names`` adds spellings: ``{"devices_per_node": "n_use"}``.  A
    field set through ``names`` is not read again under its own name,
    so a leftover duplicate is reported by :func:`reject_unknown`.
    """
    hints = get_type_hints(cls)
    spellings = list((names or {}).items()) + [
        (f.name, f.name) for f in dataclasses.fields(cls) if f.init
    ]
    out: dict = {}
    for xml_name, field in spellings:
        found = _converter(hints[field])
        if found is None or field in out or xml_name not in attrs:
            continue
        convert, noun = found
        raw = attrs.pop(xml_name)
        try:
            out[field] = convert(raw)
        except ConfigError as exc:
            raise ConfigError(f"{label}: attribute {xml_name!r}: {exc}") from None
        except ValueError:
            raise ConfigError(
                f"{label}: attribute {xml_name!r} must be {noun}, got {raw!r}"
            ) from None
    return out


def reject_unknown(label: str, attrs: Mapping[str, str]) -> None:
    """Raise for whatever the element's readers left behind."""
    if attrs:
        raise ConfigError(f"{label}: unknown attribute(s) {sorted(attrs)}")
