"""The frozen record base of the package's data types.

A record class names its fields in ``_fields``, in constructor order, and
sets them once in an explicit ``__init__`` through ``object.__setattr__``.
``Record`` then refuses assignment and deletion and gives the repr
``Name(field=value, ...)``; a ``Value`` record also compares and hashes by
its fields.  These are plain classes, with no generated methods: generating
each class's methods from source text and compiling them at every import took
about a third of the CLI's import time.
"""


class Record:
    """A frozen record whose equality and hash are its identity."""

    _fields: tuple = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Value(Record):
    """A record equal to another of its class with equal fields, compared as
    tuples, and hashed by them; records of different classes do not compare."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())
