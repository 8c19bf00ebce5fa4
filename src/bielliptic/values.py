"""The base of the library's value classes."""

from operator import attrgetter


class Value:
    """A value whose fields are its class's ``__slots__``: equal to a value
    of the same class with equal fields, hashed as they are, and printed as
    ``Name(field=..., ...)``.  Immutable by convention: nothing assigns to a
    field after construction, which equality and hashing rely on."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls.__slots__)  # one field: the bare value

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"
