"""Value semantics for plain slotted classes.

A record class lists its fields in ``__slots__`` and writes its own
``__init__``. Two records are equal when they are of one class and their
fields are equal, a record hashes by its fields (one holding a dict does not
hash), and its repr names each field. Nothing mutates a record once it is
built, so its hash holds.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
