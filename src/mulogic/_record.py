"""Frozen records that need neither generated code nor ``dataclasses`` at import.

:func:`record` reads a class's fields from its own annotations, after those
of its record bases, and installs methods shared by every record that read
the class's fields: the frozen ``__setattr__`` and ``__delattr__`` and,
unless turned off as in ``dataclass``, the dataclass ``repr`` and ``==``
and ``hash`` over the compared fields as a tuple, as ``dataclass`` computes
them.  It sets ``__match_args__`` to the ``__init__`` fields, and on Python
3.13 the ``__replace__`` that ``dataclass`` adds there.  A field that is
not plain is marked in the class body: :data:`HIDDEN` for a fact that
``__post_init__`` fixes, outside ``__init__``, ``==``, ``hash`` and
``repr``, and :func:`factory` for one whose default is made per instance.
Each class writes its ``__init__`` in source, storing its fields with
:data:`set_field` and ending with ``__post_init__`` where it has one; a
field with a factory takes :data:`FACTORY` as its default, as a generated
``__init__`` does.

The dataclass view (``dataclasses.fields``, ``replace``, ``asdict``,
``is_dataclass``) is built on first use: a record's
``__dataclass_fields__`` is a descriptor that, when first read, puts a
``field()`` back for each marked field and runs ``dataclass(init=False,
repr=False, eq=False)`` on the class, which compiles nothing.  So only a
program that reads the view imports ``dataclasses``, or one in which a
record refuses a write and raises its ``FrozenInstanceError``.
"""

from __future__ import annotations

import sys
from operator import attrgetter
from reprlib import recursive_repr

# how an __init__ stores a field past the frozen __setattr__
set_field = object.__setattr__


class _Field:
    """A field's ``dataclasses.field`` arguments, as a class body marks it."""

    def __init__(self, **options: object) -> None:
        self.options = options


# a fact fixed by __post_init__: outside __init__, ==, hash and repr
HIDDEN = _Field(init=False, compare=False, repr=False)


def factory(make) -> _Field:
    """A field whose default is a new ``make()`` per instance."""
    return _Field(default_factory=make)


class _Factory:
    def __repr__(self) -> str:
        return "<factory>"


# the __init__ default of a field with a factory, as dataclass prints it
FACTORY = _Factory()


def record(cls: type | None = None, /, *, repr: bool = True, eq: bool = True):
    """Make ``cls`` a frozen record.  With ``repr=False`` or ``eq=False``
    it prints, or compares and hashes, as its base does (by identity unless
    the base defines them)."""

    def wrap(cls: type) -> type:
        marked, fields = {}, {}
        for base in cls.__mro__[-1:0:-1]:
            fields.update(getattr(base, "_record_fields", {}))
        for name in cls.__dict__.get("__annotations__", {}):
            mark = cls.__dict__.get(name)
            if isinstance(mark, _Field):
                marked[name] = mark.options
                delattr(cls, name)
            fields[name] = marked.get(name, {})
        cls._record_fields = fields
        cls.__dataclass_fields__ = _View(cls, marked)
        cls.__match_args__ = tuple(_having(fields, "init"))
        cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
        if sys.version_info >= (3, 13):
            cls.__replace__ = _replace
        if repr:
            cls.__repr__ = _repr(_having(fields, "repr"))
        if eq:
            key = _key(_having(fields, "compare"))
            cls.__eq__, cls.__hash__ = _eq(key), _hash(key)
        return cls

    return wrap if cls is None else wrap(cls)


def _having(fields: dict[str, dict], flag: str) -> list[str]:
    """The names of the fields whose ``flag`` is on, as it is by default."""
    return [name for name, options in fields.items() if options.get(flag, True)]


class _View:
    """The ``__dataclass_fields__`` of a record class until it is first
    read, from the class or an instance: then it makes the class a
    dataclass, which puts the fields' dict in its place."""

    def __init__(self, cls: type, marked: dict[str, dict]) -> None:
        self.cls, self.marked = cls, marked

    def __get__(self, instance: object, owner: type | None = None) -> dict:
        import dataclasses

        cls = self.cls
        if cls.__dict__.get("__dataclass_fields__") is self:
            del cls.__dataclass_fields__
            for name, options in self.marked.items():
                setattr(cls, name, dataclasses.field(**options))
            dataclasses.dataclass(init=False, repr=False, eq=False)(cls)
        return cls.__dataclass_fields__


def _frozen_setattr(self, name: str, value: object) -> None:
    import dataclasses

    raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    import dataclasses

    raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")


def _replace(self, /, **changes: object) -> object:
    """``copy.replace`` support, which ``dataclass`` adds from Python 3.13."""
    import dataclasses

    return dataclasses.replace(self, **changes)


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
