"""Frozen dataclasses that compile no code at import.

``@dataclass(frozen=True)`` writes the source of ``__init__``, ``__repr__``,
``__eq__``, ``__hash__``, ``__setattr__`` and ``__delattr__`` for each class
and compiles it with ``exec``.  :func:`record` asks ``dataclass`` for none of
them, so it only collects the fields, then installs methods shared by every
record that read the class's fields: the frozen ``__setattr__`` and
``__delattr__`` and, unless turned off as in ``dataclass``, the dataclass
``repr`` and ``==`` and ``hash`` over the compared fields as a tuple, as
``dataclass`` computes them.  Each class writes its ``__init__``
in source, storing its fields with :data:`set_field` and ending with
``__post_init__`` where it has one; a field with a ``default_factory``
takes :data:`FACTORY` as its default, as a generated ``__init__`` does.
"""

from __future__ import annotations

from dataclasses import _HAS_DEFAULT_FACTORY as FACTORY
from dataclasses import FrozenInstanceError, dataclass, fields
from operator import attrgetter
from reprlib import recursive_repr

# how an __init__ stores a field past the frozen __setattr__
set_field = object.__setattr__


def record(cls: type | None = None, /, *, repr: bool = True, eq: bool = True):
    """Make ``cls`` a frozen dataclass.  With ``repr=False`` or ``eq=False``
    it prints, or compares and hashes, as its base does (by identity unless
    the base defines them)."""

    def wrap(cls: type) -> type:
        own = fields(dataclass(init=False, repr=False, eq=False)(cls))
        cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
        if repr:
            cls.__repr__ = _repr([f.name for f in own if f.repr])
        if eq:
            cls.__eq__ = _eq(_key([f.name for f in own if f.compare]))
            cls.__hash__ = _hash(_key([f.name for f in own
                                       if (f.compare if f.hash is None else f.hash)]))
        return cls

    return wrap if cls is None else wrap(cls)


def _frozen_setattr(self, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _key(names: list[str]):
    """The tuple of the fields ``names`` of an instance."""
    get = attrgetter(*names)
    return get if len(names) > 1 else lambda self: (get(self),)


def _repr(names: list[str]):
    @recursive_repr()
    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in names])
        return f"{type(self).__qualname__}({shown})"

    return __repr__


def _eq(key):
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    return __eq__


def _hash(key):
    def __hash__(self) -> int:
        return hash(key(self))

    return __hash__
