"""The frozen value record that every public value type is built on.

A record's fields are its class's ``__slots__``, in order, and its own
``__init__`` checks them and stores each with ``object.__setattr__``.  A
record equals only a record of its own class with equal fields, hashes as
the tuple of its fields, names every field in its repr, refuses assignment
and deletion, and pickles and copies by calling its constructor again with
its fields.  This module imports nothing, so both sides of every verified
identity may build on it without sharing any code that computes.
"""


class Record:
    """Base of the value records; it has no fields of its own."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._values()
