"""Value records: slotted classes with equality, hashing and repr over their
fields.

The package's data classes derive from `Record` instead of being generated
by `dataclasses`, whose import (with `inspect`) and generated code are a
large share of the start-up every run of `pcert` pays. A subclass lists its
fields in constructor order in `__slots__` and in `__match_args__`, so
positional `match` patterns bind them, and assigns them in an explicit
`__init__`, the one constructor. A base class may own the slots of its
subclasses, which then declare `__slots__ = ()` and may give a slot a
second name by binding its descriptor (as `terms._Binder` does for `Abs`
and `Prod`). A frozen record assigns its fields through the setters of its
slots (`setters`), bound once after the class, which bypass the
`__setattr__` that rejects assignment and cost less than
`object.__setattr__`.
"""

from __future__ import annotations


def setters(cls: type) -> tuple:
    """The setters of the slots `cls` declares, in order; each takes
    (record, value)."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


class Record:
    """A mutable record, as a dataclass with `eq=True` is.

    `==` holds between two instances of one class whose compared fields are
    equal. The compared fields are `_compared`, which defaults to all of
    `__match_args__`. The repr is the dataclass one, over every field. A
    mutable record has no hash.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()
    __hash__ = None

    def __init_subclass__(cls) -> None:
        if "_compared" not in cls.__dict__:
            cls._compared = cls.__match_args__

    def _values(self) -> tuple:
        """The compared fields, which `==` and `Frozen`'s hash read."""
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other: object) -> bool:
        """Value equality, as a dataclass has; the tests compare records."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        """The debugging surface, and a failed assertion's text."""
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """An immutable record, as a frozen dataclass is: assigning or deleting
    a field raises AttributeError, and the hash is that of the tuple of the
    compared fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        """Value hashing, as a frozen dataclass has; the only records the
        commands hash are terms, which define their own."""
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        """A guard: no code assigns a field, and this keeps it so."""
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        """A guard, as `__setattr__` is."""
        raise AttributeError(f"cannot delete field {name!r}")
