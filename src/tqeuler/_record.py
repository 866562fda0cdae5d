"""Immutable value records, built without :mod:`dataclasses`.

A record behaves like a frozen dataclass with the same fields: its ``repr`` is
``Name(field=value, ...)``, it equals only a record of its own class with equal
fields, its hash is the hash of the field tuple, and assigning or deleting a
field raises ``AttributeError``.  Creating a dataclass runs generated code at
import time; a record class costs no more than a plain class.
"""

from operator import attrgetter

_set = object.__setattr__


class Record:
    """Base of a record with two or more fields, the names of ``__slots__``.

    A subclass validates its arguments in ``__init__`` and stores them with
    :meth:`_fill`, in field order.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        if vars(cls).get("__slots__"):  # a subclass that names no slots keeps its base's fields
            cls._fields = cls.__slots__
            cls._values = attrgetter(*cls.__slots__)  # the field tuple

    def _fill(self, *values) -> None:
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which the frozen __setattr__ leaves open
        return type(self), self._values(self)
