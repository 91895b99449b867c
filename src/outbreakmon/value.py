"""The one base of the package's value types.

A subclass names its attributes in ``__slots__`` and, in ``_fields``, the
ones that make up its value, in declaration order. Equality, hashing and
repr read ``_fields`` alone, so derived attributes (a compiled pattern, a
lookup table, an echoed input line) take no part in them. Instances refuse
attribute assignment and deletion; ``__init__`` writes each attribute once,
through ``_set_slots`` or, on a per-record path, through the setters of the
slots themselves (``TweetRecord.id.__set__``), which cost less.
"""
from __future__ import annotations


class Value:
    """Equality, hash and repr over ``_fields``, and no assignment after
    ``__init__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set_slots(self, *values) -> None:
        """Set the class's own ``__slots__``, in their order, to ``values``."""
        for name, value in zip(self.__slots__, values, strict=True):
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
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
