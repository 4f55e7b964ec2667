"""Exception types shared across the package, and the input checks that raise one."""

from fractions import Fraction


class MalformedInput(ValueError):
    """Outside input (a JSON payload or fixture file) is missing a field or has the wrong shape."""


def require_fields(data, fields, what: str) -> None:
    """Raise MalformedInput unless data is a JSON object holding every field."""
    if not isinstance(data, dict):
        raise MalformedInput(f"{what} must be a JSON object")
    missing = [name for name in fields if name not in data]
    if missing:
        raise MalformedInput(f"{what} is missing {', '.join(missing)}")


def scalar_field(value, what: str):
    """Return value unless it is a JSON float, bool, null, list or object.

    Integers and rational strings such as "-1/2" pass through.  A float would
    be truncated by int() or turned into a binary fraction by Fraction(), so
    it is refused like the other wrong types.
    """
    if value is None or isinstance(value, (bool, float, list, dict)):
        raise MalformedInput(f"{what} must be an integer or a string, got {value!r}")
    return value


def rational_field(value, what: str) -> Fraction:
    """The exact rational of an integer or a string such as "-1/2".

    Anything scalar_field refuses, a string that is not a rational and a
    zero denominator ("1/0") raise MalformedInput.
    """
    value = scalar_field(value, what)
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise MalformedInput(f"{what} must be a rational number, got {value!r}") from None


class LimitExceeded(ValueError):
    """A size argument is above its documented cap; refused before any work starts."""


class RamificationError(ValueError):
    """The algebra (-a, -p | Q) is not ramified exactly at {p, infinity}."""


class AlgebraMismatch(ValueError):
    """Operands live in quaternion algebras with different parameters."""


class EmptyLatticeInput(ValueError):
    """A lattice constructor received no generators at all."""


class RankError(ValueError):
    """Operation requires a lattice of a different rank."""


class ContainmentError(ValueError):
    """Expected sublattice relation (inclusion, equal rank) does not hold."""


class IntegralityError(ValueError):
    """Element fails an integrality requirement (trace or norm not in Z)."""


class NotAnOrder(ValueError):
    """Rank-4 lattice is not a unital, multiplicatively closed, integral ring."""


class NotMaximal(ValueError):
    """Operation requires a maximal order."""


class LiftError(ValueError):
    """Trace-zero triple cannot be lifted to an order basis."""


class SaturationError(RuntimeError):
    """Order saturation could not reach the target discriminant."""


class MembershipError(ValueError):
    """Element is not in the lattice the operation requires."""


class TraceError(ValueError):
    """Element has the wrong reduced trace for this operation."""


class NormError(ValueError):
    """Element has the wrong reduced norm for this operation."""


class DegeneratePair(ValueError):
    """Pair of vectors is linearly dependent (zero determinant)."""


class DefinitenessError(ValueError):
    """Quadratic form or Gram matrix is not positive definite."""


class AlgebraInconsistency(RuntimeError):
    """Internal consistency check failed; the algebra parameters are suspect."""
