"""Arithmetic in the extended natural numbers ℕ ∪ {∞}.

Edge multiplicities live here: two vertices may be joined by any finite
number of parallel edges, or by countably many.  Arithmetic saturates:
∞ absorbs addition and positive multiplication, 0·∞ = 0, and the
decrement of ∞ is ∞ again (removing one edge from an infinite parallel
family leaves an infinite family).

A value is stored as a nonnegative ``int``, or as ``_INF`` (the float
``math.inf``) for ∞: the same value a graph row holds.  Float ∞ already
saturates under ``+`` and ordering, so the operators act on stored
values directly.  :func:`_ext` turns a stored value into an ``ExtNat``
and ``ExtNat.of(x)._v`` turns one back.
"""

from __future__ import annotations

import math

from .errors import DomainError

#: The stored form of ∞, in ``ExtNat`` values and in graph rows alike.
_INF = math.inf


class ExtNat:
    """A value in ℕ ∪ {∞} with saturating arithmetic.

    Instances are immutable and totally ordered with ∞ on top.  Finite
    values compare and hash like plain ints, so ``ExtNat(3) == 3`` and
    both occupy the same dict slot.  Use the module constant ``INF``
    for the infinite element.
    """

    __slots__ = ("_v",)

    def __init__(self, value: int):
        if isinstance(value, ExtNat):
            self._v = value._v
            return
        if isinstance(value, bool) or not isinstance(value, int):
            raise DomainError(f"not an extended natural: {value!r}")
        if value < 0:
            raise DomainError(f"extended naturals are nonnegative, got {value}")
        self._v = value

    @staticmethod
    def of(value) -> "ExtNat":
        """Coerce an int, the string ``"inf"`` (JSON spelling) or an ExtNat."""
        if isinstance(value, ExtNat):
            return value
        if value == "inf":
            return INF
        return ExtNat(value)

    @property
    def is_infinite(self) -> bool:
        return self._v is _INF

    @property
    def is_finite(self) -> bool:
        return self._v is not _INF

    def to_json(self):
        """JSON value: a plain int, or the string ``"inf"``."""
        return "inf" if self._v is _INF else self._v

    def __reduce__(self):
        # through ``of``, so that a pickled or copied ∞ comes back as ``INF`` itself
        return ExtNat.of, (self.to_json(),)

    def dec(self) -> "ExtNat":
        """Subtract one: ∞ - 1 = ∞; defined on finite values only for n >= 1."""
        if not self._v:
            raise DomainError("cannot decrement 0 in ℕ ∪ {∞}")
        return _ext(self._v - 1)

    def __int__(self) -> int:
        if self._v is _INF:
            raise DomainError("∞ has no integer value")
        return self._v

    def __add__(self, other):
        v = _value(other)
        return NotImplemented if v is None else _ext(self._v + v)

    __radd__ = __add__

    def __mul__(self, other):
        v = _value(other)
        if v is None:
            return NotImplemented
        return _ext(self._v * v if self._v and v else 0)  # 0·∞ = 0, not nan

    __rmul__ = __mul__

    def __eq__(self, other):
        v = _value(other)
        return NotImplemented if v is None else self._v == v

    def __lt__(self, other):
        v = _value(other)
        return NotImplemented if v is None else self._v < v

    def __le__(self, other):
        v = _value(other)
        return NotImplemented if v is None else self._v <= v

    def __gt__(self, other):
        v = _value(other)
        return NotImplemented if v is None else self._v > v

    def __ge__(self, other):
        v = _value(other)
        return NotImplemented if v is None else self._v >= v

    def __bool__(self):
        return bool(self._v)

    def __hash__(self):
        return hash(self._v)

    def __repr__(self):
        return "∞" if self._v is _INF else str(self._v)


def _value(x):
    """The stored value of an ExtNat or a nonnegative int; None for any other operand."""
    if isinstance(x, ExtNat):
        return x._v
    if isinstance(x, int) and not isinstance(x, bool) and x >= 0:
        return x
    return None


def _new(v) -> ExtNat:
    x = object.__new__(ExtNat)
    x._v = v
    return x


#: The infinite element of ℕ ∪ {∞}.
INF = _new(_INF)

#: Shared values for the small ints read most at the API.
_SMALL = tuple(map(_new, range(256)))


def _ext(v) -> ExtNat:
    """The ``ExtNat`` of a stored value: ``INF`` for any float ∞, a shared one for small ints."""
    try:
        return _SMALL[v]
    except TypeError:  # ∞, which sums and products give as a new float
        return INF
    except IndexError:
        return _new(v)
