"""Bases of the slotted value types: value equality and a repr over
``_fields``, and for ``Frozen`` hashing, pickling and refused
assignment.  Unlike ``dataclasses`` they generate no source at import."""

import math
from itertools import repeat


def require_finite(*values: complex) -> None:
    for v in values:
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError("non-finite coordinate: %r" % (v,))


class Record:
    __slots__ = ()          # __eq__ without __hash__: unhashable

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))


class Frozen(Record):
    __slots__ = ()

    def _set(self, *values) -> None:        # for __init__ only
        # The slots in order; any() runs the map out, as each call is None.
        any(map(object.__setattr__, repeat(self), self.__slots__, values))

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):      # unpickling calls __init__, not __setattr__
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError("%s is frozen: %s" % (type(self).__name__, name))

    __delattr__ = __setattr__
