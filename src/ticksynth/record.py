"""Immutable objects over ``__slots__``, defined without generating code."""

from __future__ import annotations


class Record:
    """Base of an immutable object whose fields are its class's
    ``__slots__``, given positionally or by keyword.  The repr is
    ``Name(field=value, ...)``, assigning or deleting a field raises
    :class:`AttributeError`, and equality is identity unless overridden.
    """

    __slots__ = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__slots__
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = zip(self.__slots__, self._values())
        inner = ", ".join(f"{name}={value!r}" for name, value in fields)
        return f"{type(self).__name__}({inner})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Checked:
    """Mixin put before the ``collections.namedtuple`` base of a class
    that validates in ``__new__``.  The inherited ``_make``, which
    ``_replace`` calls, would build the tuple directly; this one calls the
    class, so neither can make a value the constructor refuses."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
