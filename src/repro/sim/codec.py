"""Message codec: compact int codes + compiled field accounting.

The engine-v2 hot path never asks a message to describe itself.  At
first sight of a message class the codec registers it: assigns the next
compact integer code, memoizes the class name (per-type accounting), and
**compiles** two per-class functions from the dataclass field list:

* ``count(msg)`` — the number of identity-sized payload slots, with
  semantics exactly matching :meth:`repro.sim.messages.Message.field_values`
  (``None`` skipped, bools and numbers count 1, tuples count their
  non-``None`` elements, anything else raises the same ``TypeError``);
* ``encode(msg)`` — the flat wire form ``(code, field, field, ...)``.

``decode_message`` inverts ``encode_message`` exactly (``cls(*fields)``),
so the round-trip is the identity on every protocol message — pinned by
``tests/test_codec.py`` and the ``message_codec`` micro-bench.

Registration also installs a compiled ``__init__`` on the class (see
:func:`_compile_init`): it sets each slot through its member descriptor
instead of the frozen dataclass's ``object.__setattr__`` calls, with the
same signature and defaults. A class with ``__post_init__``, without
slots, or with fields the plain template cannot express keeps its
dataclass ``__init__``. Compiling happens at registration, not at import,
so importing the protocols costs nothing extra.

Registration is lazy and idempotent: *defining* a new frozen-dataclass
``Message`` subclass is all a protocol author has to do — the first send
registers it.  Codes are dense ints in first-seen order (deterministic
for a deterministic program); they are a per-process handle, never
persisted, so adding message types can't invalidate caches or baselines.

Attempting to register a non-:class:`~repro.sim.messages.Message` class
raises :class:`~repro.errors.SimulationError` with the engine's
payload-validation message — which is how ``Network``'s send path keeps
the old ``isinstance`` check without paying for it per send.
"""

from __future__ import annotations

import dataclasses
from types import MemberDescriptorType
from typing import Any, Callable

from ..errors import SimulationError
from .messages import Message

__all__ = [
    "CodecEntry",
    "codec_entry",
    "encode_message",
    "decode_message",
    "registered_codes",
]


class CodecEntry:
    """Per-message-class codec record (see module docstring)."""

    __slots__ = ("cls", "code", "name", "field_names", "count", "encode")

    def __init__(
        self,
        cls: type,
        code: int,
        field_names: tuple[str, ...],
        count: Callable[[Any], int],
        encode: Callable[[Any], tuple],
    ) -> None:
        self.cls = cls
        self.code = code
        self.name = cls.__name__
        self.field_names = field_names
        self.count = count
        self.encode = encode


#: class -> entry; the single source of truth.
_ENTRIES: dict[type, CodecEntry] = {}
#: code -> entry, index == code (decode side).
_BY_CODE: list[CodecEntry] = []


def _slow_count(msg: Any, name: str, value: Any) -> int:
    """Fallback for exotic field values (subclasses of int/tuple, or
    genuinely non-scalar payloads) — replicates ``field_values``."""
    if isinstance(value, (bool, int, float)):
        return 1
    if isinstance(value, tuple):
        return sum(1 for v in value if v is not None)
    raise TypeError(f"{type(msg).__name__}.{name} has non-scalar payload {value!r}")


def _compile_count(cls: type, names: tuple[str, ...]) -> Callable[[Any], int]:
    """Build an exact-type-specialized field counter for *cls*."""
    if not names:
        return lambda msg: 0
    lines = ["def _count(msg, _slow=_slow):", "    c = 0"]
    for name in names:
        lines += [
            f"    v = msg.{name}",
            "    if v is not None:",
            "        t = v.__class__",
            "        if t is int or t is bool or t is float:",
            "            c += 1",
            "        elif t is tuple:",
            "            for x in v:",
            "                if x is not None:",
            "                    c += 1",
            "        else:",
            f"            c += _slow(msg, {name!r}, v)",
        ]
    lines.append("    return c")
    ns: dict[str, Any] = {"_slow": _slow_count}
    exec("\n".join(lines), ns)  # noqa: S102 - compile-time codegen, fixed template
    return ns["_count"]


def _compile_encode(code: int, names: tuple[str, ...]) -> Callable[[Any], tuple]:
    if not names:
        return lambda msg, _c=(code,): _c
    body = ", ".join(f"msg.{name}" for name in names)
    ns: dict[str, Any] = {}
    exec(f"def _encode(msg):\n    return ({code}, {body})", ns)  # noqa: S102
    return ns["_encode"]


def _compile_init(cls: type) -> Callable[..., None] | None:
    """A slot-setting ``__init__`` equivalent to the dataclass one, or
    ``None`` when *cls* needs the dataclass machinery (``__post_init__``,
    no slots, ``InitVar``/``kw_only``/``init=False``/factory fields)."""
    if hasattr(cls, "__post_init__") or "__slots__" not in cls.__dict__:
        return None
    fields = dataclasses.fields(cls)
    if len(fields) != len(cls.__dataclass_fields__) or not fields:
        return None
    params, body = [], []
    ns: dict[str, Any] = {}
    for f in fields:
        # a slot field's class attribute is its member descriptor
        slot = getattr(cls, f.name, None)
        if (
            type(slot) is not MemberDescriptorType
            or not f.init
            or f.kw_only
            or f.default_factory is not dataclasses.MISSING
        ):
            return None
        ns[f"_set_{f.name}"] = slot.__set__
        if f.default is dataclasses.MISSING:
            params.append(f.name)
        else:
            ns[f"_dflt_{f.name}"] = f.default
            params.append(f"{f.name}=_dflt_{f.name}")
        body.append(f"    _set_{f.name}(self, {f.name})")
    source = f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body)
    exec(source, ns)  # noqa: S102 - registration-time codegen, fixed template
    init = ns["__init__"]
    dataclass_init = cls.__init__
    init.__qualname__ = dataclass_init.__qualname__
    init.__module__ = dataclass_init.__module__
    init.__annotations__ = dict(dataclass_init.__annotations__)
    init.__doc__ = dataclass_init.__doc__
    return init


def _register(cls: type) -> CodecEntry:
    if not (isinstance(cls, type) and issubclass(cls, Message)):
        raise SimulationError(f"payload must be a Message, got {cls!r}")
    names = tuple(f.name for f in dataclasses.fields(cls))
    init = _compile_init(cls)
    if init is not None:
        cls.__init__ = init  # type: ignore[misc]
    code = len(_BY_CODE)
    entry = CodecEntry(
        cls, code, names, _compile_count(cls, names), _compile_encode(code, names)
    )
    _BY_CODE.append(entry)
    _ENTRIES[cls] = entry
    return entry


def codec_entry(cls: type) -> CodecEntry:
    """The codec entry for a message class, registering it on first use."""
    entry = _ENTRIES.get(cls)
    if entry is None:
        entry = _register(cls)
    return entry


def registered_codes() -> dict[str, int]:
    """Class-name -> code snapshot, for diagnostics and tests."""
    return {e.name: e.code for e in _BY_CODE}


def encode_message(msg: Message) -> tuple:
    """Flatten *msg* into its wire tuple ``(code, field, field, ...)``."""
    return codec_entry(msg.__class__).encode(msg)


def decode_message(wire: tuple) -> Message:
    """Invert :func:`encode_message` (exact round-trip)."""
    code = wire[0]
    if not 0 <= code < len(_BY_CODE):
        raise SimulationError(f"unknown message code {code!r}")
    return _BY_CODE[code].cls(*wire[1:])
