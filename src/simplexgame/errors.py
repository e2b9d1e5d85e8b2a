"""Exception types shared across the package, the allocation budget and the one
count and index check."""
import numbers

MAX_ALLOCATION_BYTES = 1 << 32  # 4 GiB; a serial c05 sweep peaks at 70 MB, so more is a typo


class ValidationError(ValueError):
    """An input violates a documented invariant; `fields` are the config fields
    of the failed check, the one an error should name first."""

    fields: tuple = ()


class DegenerateStrengthsError(ValidationError):
    """The strength distribution is too close to a face of the simplex to encode."""


class BudgetError(ValidationError):
    """An exhaustive computation would exceed its configured size budget."""


def check_allocation(nbytes: int, what: str) -> None:
    """Raise BudgetError before allocating more than MAX_ALLOCATION_BYTES for `what`."""
    if nbytes > MAX_ALLOCATION_BYTES:
        # a size beyond any float is given by its bit length
        size = (f"{nbytes / 2**30:.3g}" if nbytes.bit_length() <= 1000
                else f"at least 2^{nbytes.bit_length() - 31}")
        raise BudgetError(f"{what} would need {size} GiB, above the "
                          f"{MAX_ALLOCATION_BYTES / 2**30:.3g} GiB allocation budget")


def check_count(value, name: str, least: int = 0, below: int | None = None) -> None:
    """Raise ValidationError naming `name` unless value is a Python or NumPy
    integer (a bool, a float or NaN is not) that is at least `least`, and
    below `below` when one is given: the one check of a count or an index."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if below is not None and not least <= value < below:
        raise ValidationError(f"{name} {value} out of range [{least}, {below})")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}")
