"""Value records: plain classes with __slots__ that compare, hash and
print by their fields as dataclasses do, without importing dataclasses,
which with inspect and ast costs more than the rest of a command's
start-up.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Equality, repr and pickling over the fields that a subclass names
    in __slots__, in that order; the subclass's __init__ takes them in the
    same order and sets them.  Like a dataclass that is not frozen, it
    compares only with its own class and is unhashable."""

    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__slots__:
            # one field gives the value itself, not a 1-tuple: the same
            # equality and hash either way
            cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class FrozenRecord(Record):
    """A Record that hashes by its fields and refuses assignment and
    deletion, as a frozen dataclass does; its __init__ sets the fields
    with object.__setattr__."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
