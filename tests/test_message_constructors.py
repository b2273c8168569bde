"""Compiled message constructors (installed by the codec at registration)
behave exactly like the dataclass ``__init__`` they replace, for every
``Message`` subclass the package defines."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pickle
import pkgutil
import sys

import pytest

import repro
from repro.sim.codec import codec_entry, decode_message, encode_message
from repro.sim.messages import Message


def _all_message_classes() -> list[type]:
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":  # runs the CLI on import
            importlib.import_module(info.name)
    found, stack = [], [Message]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            # ``dataclass(slots=True)`` replaces the class it decorates;
            # keep the one its module actually exports
            module = sys.modules.get(sub.__module__)
            if sub.__module__.startswith("repro.") and getattr(
                module, sub.__qualname__, None
            ) is sub:
                found.append(sub)
    return sorted(set(found), key=lambda c: (c.__module__, c.__qualname__))


CLASSES = _all_message_classes()


def _values(cls: type) -> dict[str, int]:
    return {f.name: 3 + i for i, f in enumerate(dataclasses.fields(cls))}


def _dataclass_built(cls: type, values: dict[str, object]):
    """What the frozen dataclass ``__init__`` does: ``object.__setattr__``
    per field, in declaration order."""
    obj = cls.__new__(cls)
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    return obj


def test_the_package_defines_many_messages():
    assert len(CLASSES) >= 30
    assert all(dataclasses.is_dataclass(c) for c in CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: f"{c.__module__}.{c.__qualname__}")
def test_compiled_constructor_matches_the_dataclass_one(cls):
    signature_before = inspect.signature(cls)
    codec_entry(cls)  # registration installs the compiled __init__
    assert inspect.signature(cls) == signature_before
    values = _values(cls)
    reference = _dataclass_built(cls, values)
    positional = cls(*values.values())
    keyword = cls(**values)
    for obj in (positional, keyword):
        assert obj == reference
        assert hash(obj) == hash(reference)
        assert repr(obj) == repr(reference)
        assert pickle.loads(pickle.dumps(obj)) == reference
        assert decode_message(encode_message(obj)) == reference
    # defaulted fields keep their defaults
    required = {
        name: value
        for name, value in values.items()
        if signature_before.parameters[name].default is inspect.Parameter.empty
    }
    defaults = {
        name: p.default
        for name, p in signature_before.parameters.items()
        if p.default is not inspect.Parameter.empty
    }
    assert cls(**required) == _dataclass_built(cls, {**values, **defaults, **required})
    # a name that is not a field covers the field-less classes too
    for name in (*values, "not_a_field"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(positional, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(positional, name)
    with pytest.raises(TypeError, match=rf"{cls.__qualname__}\.__init__\(\)"):
        cls(*values.values(), 99)


def test_slot_classes_get_the_compiled_constructor():
    @dataclasses.dataclass(frozen=True, slots=True)
    class Plain(Message):
        a: int
        b: int | None = None

    dataclass_init = Plain.__init__
    codec_entry(Plain)
    assert Plain.__init__ is not dataclass_init
    assert Plain(1) == _dataclass_built(Plain, {"a": 1, "b": None})


def test_post_init_and_slotless_classes_keep_the_dataclass_constructor():
    @dataclasses.dataclass(frozen=True, slots=True)
    class Checked(Message):
        a: int

        def __post_init__(self) -> None:
            if self.a < 0:
                raise ValueError("negative")

    @dataclasses.dataclass(frozen=True)
    class Slotless(Message):
        a: int

    inits = {cls: cls.__init__ for cls in (Checked, Slotless)}
    for cls in (Checked, Slotless):
        codec_entry(cls)
        assert cls.__init__ is inits[cls]
    with pytest.raises(ValueError, match="negative"):
        Checked(-1)
    assert Slotless(2) == _dataclass_built(Slotless, {"a": 2})
