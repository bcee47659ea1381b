"""Immutable records: the base of the syntax-tree nodes, the reports and the
product and constraint specs.

A plain `__slots__` class is defined at import for a fraction of what a
frozen dataclass costs, and no CLI run loads the `dataclasses` module,
which also loads `inspect`.
"""

from __future__ import annotations

from typing import Any

__all__ = ["Record"]

_set = object.__setattr__


class Record:
    """A record whose fields are its class's `__slots__`, in order.

    The fields are set once, by `__init__`, positionally or by keyword;
    `_defaults` maps the fields that may be left out to their values.  Two
    records are equal when they are of the same class and their `_key()`
    (every field, unless a class narrows it) is equal, and equal records
    hash equal.  Assigning to or deleting a field raises AttributeError.
    """

    __slots__ = ()
    _defaults: dict[str, Any] = {}

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        names = self.__slots__
        if len(args) == len(names) and not kwargs:
            for name, value in zip(names, args):
                _set(self, name, value)
            return
        cls = type(self).__qualname__
        if len(args) > len(names):
            raise TypeError(f"{cls}() takes {len(names)} fields, got {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{cls}() got an unexpected or repeated field {name!r}")
            values[name] = value
        for name in names:
            if name in values:
                _set(self, name, values[name])
            elif name in self._defaults:
                _set(self, name, self._defaults[name])
            else:
                raise TypeError(f"{cls}() is missing the field {name!r}")

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__
        return type(self), tuple(map(self.__getattribute__, self.__slots__))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
