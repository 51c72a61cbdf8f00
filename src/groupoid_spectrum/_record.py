"""Immutable value records, the base of the package's value classes.

A record class lists its fields in ``__slots__`` (plus ``"__dict__"`` when it
keeps ``cached_property`` values), and this base's constructor stores them:
one value per field, by position in ``__slots__`` order or by name, with a
``TypeError`` that names the class and its fields on a wrong count or an
unknown, missing or repeated name.  A class that validates or normalises
its arguments has its own ``__init__``, which ends in ``super().__init__``.
The base also gives what the standard library's frozen data classes give:
assignment and deletion raise ``AttributeError``; equality and hashing go
over the field values, and only records of the same class compare equal; a
``Name(field=value, ...)`` repr; ``replace``, which builds a new record
through the constructor, so validation runs again; and copying and pickling,
which rebuild the record through the constructor from its field values too,
so cached views are not carried over.

The package does not use the standard library's data class decorator: its
module imports ``inspect``, and each frozen class it builds runs ``exec``
six times.  Together that costs every fresh process about 20 ms, more than
most commands spend on their own work.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Record"]


class Record:
    """The base of an immutable value record (see the module docstring)."""

    __slots__ = ()

    _fields: tuple[str, ...]
    _values: attrgetter  # the field values, compared and hashed
    _stores: tuple  # each field's slot ``__set__``, which stores past the refusing ``__setattr__``

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        # a tuple of the values, or the value of a lone field; not a descriptor, so never bound
        cls._values = attrgetter(*cls._fields)
        cls._stores = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *values, **named) -> None:
        stores = self._stores
        if named:
            values = self._arrange(values, named)
        elif len(values) != len(stores):
            raise self._misuse(f"takes {len(stores)} values, got {len(values)}")
        for store, value in zip(stores, values):
            store(self, value)

    def _arrange(self, values: tuple, named: dict) -> tuple:
        """The values of all fields in order, from the leading ``values`` and the ``named`` rest."""
        fields = self._fields
        if len(values) > len(fields):
            raise self._misuse(f"takes {len(fields)} values, got {len(values)}")
        rest = fields[len(values):]
        for name in named:
            if name not in rest:
                raise self._misuse(f"got field {name!r} twice" if name in fields else f"has no field {name!r}")
        for name in rest:
            if name not in named:
                raise self._misuse(f"is missing field {name!r}")
        return values + tuple(map(named.__getitem__, rest))

    def _misuse(self, problem: str) -> TypeError:
        return TypeError(f"{self.__class__.__qualname__}({', '.join(self._fields)}) {problem}")

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        """The constructor and the field values: ``copy`` and ``pickle`` rebuild the record through it."""
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def replace(self, **changes):
        """A new record with the given fields changed, built and validated by the constructor."""
        for name in self._fields:
            changes.setdefault(name, getattr(self, name))
        return self.__class__(**changes)
