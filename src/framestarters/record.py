"""`Record`, the base of the package's immutable value classes.

A record class names in `_fields` the fields that make up its value; the
base compares, hashes and shows a record by them, in order, and refuses
every attribute assignment.  The class lists its slots, the fields and
anything derived from them, and its `__init__` writes each slot once
(`_assign`).  Pickling and copying carry every slot.  The methods are
written out, not generated, so an import compiles them once and runs no
code generation.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _assign(self, *values) -> None:
        """Write the slots, in `__slots__` order, past the frozen
        `__setattr__`."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> list:
        return [getattr(self, name) for name in self.__slots__]

    def __setstate__(self, state: list) -> None:
        self._assign(*state)
