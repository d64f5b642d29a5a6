"""Arithmetic in the extended natural numbers ℕ ∪ {∞}.

Edge multiplicities live here: two vertices may be joined by any finite
number of parallel edges, or by countably many.  Arithmetic saturates:
∞ absorbs addition and positive multiplication, 0·∞ = 0, and the
decrement of ∞ is ∞ again (removing one edge from an infinite parallel
family leaves an infinite family).
"""

from __future__ import annotations

from .errors import DomainError


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
        return self._v is None

    @property
    def is_finite(self) -> bool:
        return self._v is not None

    def to_json(self):
        """JSON value: a plain int, or the string ``"inf"``."""
        return "inf" if self._v is None else self._v

    def dec(self) -> "ExtNat":
        """Subtract one: ∞ - 1 = ∞; defined on finite values only for n >= 1."""
        if self._v is None:
            return self
        if self._v == 0:
            raise DomainError("cannot decrement 0 in ℕ ∪ {∞}")
        return ExtNat(self._v - 1)

    def __int__(self) -> int:
        if self._v is None:
            raise DomainError("∞ has no integer value")
        return self._v

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._v is None or other._v is None:
            return INF
        return ExtNat(self._v + other._v)

    __radd__ = __add__

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._v == 0 or other._v == 0:
            return ExtNat(0)
        if self._v is None or other._v is None:
            return INF
        return ExtNat(self._v * other._v)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._v == other._v

    def __lt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._v is None:
            return False
        if other._v is None:
            return True
        return self._v < other._v

    def __le__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self == other or self < other

    def __gt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other < self

    def __ge__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other <= self

    def __bool__(self):
        return self._v != 0

    def __hash__(self):
        return hash(float("inf")) if self._v is None else hash(self._v)

    def __repr__(self):
        return "∞" if self._v is None else str(self._v)


def _coerce(value):
    if isinstance(value, ExtNat):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        if value < 0:
            return NotImplemented
        return ExtNat(value)
    return NotImplemented


def _make_inf() -> ExtNat:
    x = object.__new__(ExtNat)
    x._v = None
    return x


#: The infinite element of ℕ ∪ {∞}.
INF = _make_inf()
