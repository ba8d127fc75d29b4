"""The frozen record base of the package's data types.

A record's fields are its constructor's positional parameters, in order:
``Record`` reads them from each class's own ``__init__`` into ``_fields`` (a
class without one keeps its parent's).  The constructor validates, rebinds a
parameter to its converted value (``values = _as_samples(values)``) and ends
with ``self._set(locals())``, which stores every field from those final
values.  ``Record`` then refuses assignment and deletion and gives the repr
``Name(field=value, ...)``; a ``Value`` record also compares and hashes by
its fields.  These are plain classes, with no generated methods: generating
each class's methods from source text and compiling them at every import took
about a third of the CLI's import time.
"""


class Record:
    """A frozen record whose equality and hash are its identity."""

    _fields: tuple = ()

    def __init_subclass__(cls):
        init = vars(cls).get("__init__")
        if init is not None:
            code = init.__code__
            cls._fields = code.co_varnames[1:code.co_argcount]

    def _set(self, values: dict) -> None:
        """Store each field from ``values``, the constructor's ``locals()``."""
        vars(self).update({name: values[name] for name in self._fields})

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
