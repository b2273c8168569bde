"""Base message type with O(log n) size accounting.

The paper (§4.2) claims every message carries "at most four numbers or
identities", i.e. O(log n) bits. To make that claim *checkable*, every
protocol message in this library is a frozen dataclass deriving from
:class:`Message` whose fields are either identity-sized scalars (node ids,
degrees, round numbers) or ``None``. :meth:`Message.field_values` flattens
the payload and :meth:`Message.id_field_count` counts identity-sized
slots; the metrics layer audits the maximum over a run (experiment T7).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

__all__ = ["Message", "message_bits", "MESSAGE_TYPE_BITS"]

#: Bits charged for the message type tag in the paper's accounting.
MESSAGE_TYPE_BITS = 5

# field_values runs once per sent message; dataclasses.fields() rebuilds a
# tuple of Field objects each call, so the names are memoized per class.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _rebind_frozen(cls: type) -> None:
    """``dataclass(frozen=True, slots=True)`` rebuilds the class it
    decorates, but the frozen ``__setattr__``/``__delattr__`` it made
    still close over the replaced class (Python 3.11), so on a field-less
    message they raise ``TypeError`` from ``super()`` instead of
    ``FrozenInstanceError``. Point them at *cls*, the class in use."""
    for name in ("__setattr__", "__delattr__"):
        fn = cls.__dict__.get(name)
        code = getattr(fn, "__code__", None)
        if code is not None and "cls" in code.co_freevars:
            fn.__closure__[code.co_freevars.index("cls")].cell_contents = cls


@dataclass(frozen=True, slots=True)
class Message:
    """Base class for all protocol messages.

    Subclasses must be frozen dataclasses whose field values are ints,
    floats, short tuples of ints, or None. ``type_name`` is used for
    per-type accounting.
    """

    def __init_subclass__(cls) -> None:
        _rebind_frozen(cls)

    @property
    def type_name(self) -> str:
        return type(self).__name__

    def field_values(self) -> list[int | float]:
        """Flatten all non-None scalar payload fields."""
        cls = type(self)
        names = _FIELD_NAMES.get(cls)
        if names is None:
            names = tuple(f.name for f in dataclasses.fields(self))
            _FIELD_NAMES[cls] = names
        out: list[int | float] = []
        for name in names:
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, bool):
                out.append(int(value))
            elif isinstance(value, (int, float)):
                out.append(value)
            elif isinstance(value, tuple):
                out.extend(v for v in value if v is not None)
            else:
                raise TypeError(
                    f"{self.type_name}.{name} has non-scalar payload {value!r}"
                )
        return out

    def id_field_count(self) -> int:
        """Number of identity-sized payload slots this message carries."""
        return len(self.field_values())


_rebind_frozen(Message)


def message_bits(msg: Message, n: int, type_bits: int = MESSAGE_TYPE_BITS) -> int:
    """Size of *msg* in bits on a network of *n* nodes.

    Each identity-sized field costs ``ceil(log2(max(n, 2)))`` bits and the
    message type tag costs *type_bits* — the accounting behind the paper's
    bit-complexity remark.
    """
    id_bits = max(1, math.ceil(math.log2(max(n, 2))))
    return type_bits + msg.id_field_count() * id_bits
