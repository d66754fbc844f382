"""Value semantics for the package's plain record classes.

A record class writes its own ``__init__``, which stores each parameter
as an attribute of the same name, and names those parameters in
``_fields``.  ``Record`` then compares, hashes and prints it by those
fields, as a frozen dataclass would, and ``replace`` copies it.
Immutability is a convention: nothing assigns a field after
construction, and cached forms live in the instance ``__dict__``.
"""


class Record:
    _fields = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def replace(self, **changes):
        """A new record of the same type with ``changes`` over these
        fields, built by the type's own constructor: its checks run again,
        and nothing cached on this record is carried over."""
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return type(self)(**values)
