"""Field-wise ``==`` and ``repr`` for the package's value types.

A value type is a plain class whose fields are the parameters of its
``__init__``, in order, each stored under its own name. ``dataclasses``
would give the same methods, but every CLI run would pay for its import and
for the source it generates and ``exec``s per class.
"""

from __future__ import annotations

from math import isfinite


def fields(cls) -> tuple[str, ...]:
    """The field names of the value type ``cls``: its ``__init__`` parameters."""
    code = cls.__init__.__code__
    return code.co_varnames[1:code.co_argcount]


def as_dict(value) -> dict:
    """Field name -> value, in field order."""
    return {name: getattr(value, name) for name in fields(type(value))}


class Value:
    """Equal to another instance of its own type with equal fields."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return as_dict(self) == as_dict(other)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in as_dict(self).items())
        return f"{type(self).__qualname__}({shown})"


class FrozenValue(Value):
    """A configuration value: read-only once built, hashed by its fields, and
    holding no NaN or infinite float. JSON configs can spell both, and a NaN
    passes every ``<`` range check.

    A subclass's ``__init__`` passes its arguments, in field order, to this
    one, then checks the stored fields.
    """

    def __init__(self, *values):
        for name, value in zip(fields(type(self)), values):
            if isinstance(value, float) and not isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __hash__(self) -> int:
        return hash(tuple(as_dict(self).values()))
