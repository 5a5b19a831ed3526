"""The one number policy of the entry points: a count is an integer >= 1 and a real a finite real
number (+inf too where it means no bound), neither a bool; ranges are compared by the caller."""

import math
import numbers


def is_count(value) -> bool:
    """Whether ``value`` is an integer >= 1 of any integral type, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


def is_real(value, inf: bool = False) -> bool:
    """Whether ``value`` is a finite real number, not a bool; ``inf`` admits +inf too."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (-math.inf < value < math.inf or inf and value == math.inf))


def require(ok: bool, what: str, expect: str, name: str, value) -> None:
    """Unless ``ok``, raise the one refusal, ``ValueError("<what> must be <expect>, got <name> = <value!r>")``."""
    if not ok:
        raise ValueError(f"{what} must be {expect}, got {name} = {value!r}")


def require_count(value, what: str, name: str) -> int:
    """``value`` as an int, refused unless :func:`is_count` holds."""
    require(is_count(value), what, "an integer >= 1", name, value)
    return int(value)
